package analysis

import (
	"time"

	"manualhijack/internal/behavior"
	"manualhijack/internal/event"
	"manualhijack/internal/stats"
)

// DetectionEval is the offline evaluation of the post-login behavioral
// detector (§5.2 proposes it; §8.2 cautions it fires after exposure). The
// evaluation replays the observable event stream through the detector —
// exactly the data a live deployment would see — and scores the flags
// against the simulation's ground truth.
type DetectionEval struct {
	HijackSessions  int
	OrganicSessions int
	TruePositives   int
	FalsePositives  int
	Precision       float64
	Recall          float64
	// MeanExposure is how long flagged hijack sessions ran before the
	// flag — the paper's "already too late" window.
	MeanExposure time.Duration
}

// BehaviorEvalBuilder replays the log through a detector with the given
// configuration: a live detector fed session actions one event at a time.
// Events must arrive in time order — the detector's session state machines
// depend on it — which both the sealed log and the segmented scan
// guarantee.
type BehaviorEvalBuilder struct {
	det          *behavior.Detector
	sessionActor map[event.SessionID]event.Actor
}

// NewBehaviorEvalBuilder returns a builder around a fresh detector.
func NewBehaviorEvalBuilder(cfg behavior.Config) *BehaviorEvalBuilder {
	return &BehaviorEvalBuilder{
		det:          behavior.NewDetector(cfg),
		sessionActor: map[event.SessionID]event.Actor{},
	}
}

// Observe feeds one event to the detector.
func (b *BehaviorEvalBuilder) Observe(e event.Event) {
	if sess, a, ok := behavior.ActionOf(e); ok {
		b.det.Observe(sess, a)
	} else if l, ok := e.(event.Login); ok && l.Outcome == event.LoginSuccess {
		b.det.Begin(l.Session, l.When())
		b.sessionActor[l.Session] = l.Actor
	}
}

// DetectionEval scores the sessions observed so far against ground truth.
func (b *BehaviorEvalBuilder) DetectionEval() DetectionEval {
	var out DetectionEval
	var exposure time.Duration
	for sess, actor := range b.sessionActor {
		hijack := actor == event.ActorHijacker
		if hijack {
			out.HijackSessions++
		} else {
			out.OrganicSessions++
		}
		if _, flagged := b.det.FlaggedAt(sess); !flagged {
			continue
		}
		if hijack {
			out.TruePositives++
			if exp, ok := b.det.ExposureTime(sess); ok {
				exposure += exp
			}
		} else {
			out.FalsePositives++
		}
	}
	out.Precision = stats.Ratio(float64(out.TruePositives), float64(out.TruePositives+out.FalsePositives))
	out.Recall = stats.Ratio(float64(out.TruePositives), float64(out.HijackSessions))
	if out.TruePositives > 0 {
		out.MeanExposure = exposure / time.Duration(out.TruePositives)
	}
	return out
}

// RiskOperatingPoint is one row of the login-risk threshold sweep: the
// counterfactual effect of challenging every login scoring at or above
// the threshold, computed from the logged risk scores.
//
// This is a post-hoc approximation (the world is not re-run per
// threshold): "caught" hijacker logins are successful hijacker logins
// that would have been challenged, and "friction" is the share of
// legitimate logins that would have been challenged — the §8.1 trade-off.
type RiskOperatingPoint struct {
	Threshold        float64
	HijackerCaught   float64 // share of successful hijacker logins challenged
	OwnerChallenged  float64 // share of owner logins challenged (false positives)
	HijackerAttempts int
	OwnerAttempts    int
}

// RiskSweepBuilder evaluates the thresholds over the logged scores:
// per-threshold challenge counters updated per login. A login's
// contribution to every operating point is decided the moment it is seen,
// so the sweep never materializes the login log.
type RiskSweepBuilder struct {
	thresholds    []float64
	hijackCaught  []int
	ownerChal     []int
	hijackSuccess int
	owner         int
}

// NewRiskSweepBuilder returns an empty builder for the given thresholds.
func NewRiskSweepBuilder(thresholds []float64) *RiskSweepBuilder {
	return &RiskSweepBuilder{
		thresholds:   append([]float64(nil), thresholds...),
		hijackCaught: make([]int, len(thresholds)),
		ownerChal:    make([]int, len(thresholds)),
	}
}

// Observe folds one event into every operating point's counters.
func (b *RiskSweepBuilder) Observe(e event.Event) {
	l, ok := e.(event.Login)
	if !ok {
		return
	}
	if l.Actor == event.ActorHijacker {
		if l.Outcome != event.LoginSuccess {
			return
		}
		b.hijackSuccess++
		for i, t := range b.thresholds {
			if l.RiskScore >= t {
				b.hijackCaught[i]++
			}
		}
	} else {
		b.owner++
		for i, t := range b.thresholds {
			if l.RiskScore >= t {
				b.ownerChal[i]++
			}
		}
	}
}

// Merge folds a later partition's counters into b. Both builders come
// from the same constructor, so the threshold grids line up.
func (b *RiskSweepBuilder) Merge(other *RiskSweepBuilder) {
	for i := range b.thresholds {
		b.hijackCaught[i] += other.hijackCaught[i]
		b.ownerChal[i] += other.ownerChal[i]
	}
	b.hijackSuccess += other.hijackSuccess
	b.owner += other.owner
}

// Sweep snapshots the operating points observed so far.
func (b *RiskSweepBuilder) Sweep() []RiskOperatingPoint {
	out := make([]RiskOperatingPoint, 0, len(b.thresholds))
	for i, t := range b.thresholds {
		out = append(out, RiskOperatingPoint{
			Threshold:        t,
			HijackerAttempts: b.hijackSuccess,
			OwnerAttempts:    b.owner,
			HijackerCaught:   stats.Ratio(float64(b.hijackCaught[i]), float64(b.hijackSuccess)),
			OwnerChallenged:  stats.Ratio(float64(b.ownerChal[i]), float64(b.owner)),
		})
	}
	return out
}
