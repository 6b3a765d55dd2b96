package analysis

import (
	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/stats"
	"manualhijack/internal/strsim"
)

// DoppelgangerFinding is one flagged redirection setting.
type DoppelgangerFinding struct {
	Account    identity.AccountID
	Addr       identity.Address
	Similarity float64
	Kind       string // "replyto" | "filter"
	Hijacker   bool   // ground truth, for evaluation
}

// DoppelgangerEval evaluates the §5.4 countermeasure the paper calls
// essential: reviewing Reply-To and forwarding settings during recovery.
// The detector flags configured addresses that are suspiciously similar
// to the account's own address — the signature of a doppelganger account
// diverting future correspondence.
type DoppelgangerEval struct {
	Findings       []DoppelgangerFinding
	TruePositives  int
	FalsePositives int
	// HijackerSettings counts all hijacker-configured redirections, so
	// recall is computable.
	HijackerSettings int
	Precision        float64
	Recall           float64
	// MeanHijackerSim / MeanOwnerSim show the separation the detector
	// exploits.
	MeanHijackerSim float64
	MeanOwnerSim    float64
}

// DoppelgangerBuilder scans redirection settings in the log and flags
// those within threshold similarity of the account's address: similarity
// is scored and classified the moment a redirection setting is seen.
type DoppelgangerBuilder struct {
	dir       *identity.Directory
	threshold float64

	out                 DoppelgangerEval
	hijackSim, ownerSim stats.Sample
}

// NewDoppelgangerBuilder returns a builder scoring against dir at the
// given similarity threshold.
func NewDoppelgangerBuilder(dir *identity.Directory, threshold float64) *DoppelgangerBuilder {
	return &DoppelgangerBuilder{dir: dir, threshold: threshold}
}

// Observe folds one event into the evaluation.
func (b *DoppelgangerBuilder) Observe(e event.Event) {
	switch ev := e.(type) {
	case event.ReplyToSet:
		b.consider(ev.Account, ev.Addr, "replyto", ev.Actor)
	case event.FilterCreated:
		b.consider(ev.Account, ev.ForwardTo, "filter", ev.Actor)
	}
}

func (b *DoppelgangerBuilder) consider(acct identity.AccountID, addr identity.Address, kind string, actor event.Actor) {
	if addr == "" {
		return
	}
	a := b.dir.Get(acct)
	if a == nil {
		return
	}
	sim := strsim.Similarity(string(a.Addr), string(addr))
	hijacker := actor == event.ActorHijacker
	if hijacker {
		b.out.HijackerSettings++
		b.hijackSim.Add(sim)
	} else {
		b.ownerSim.Add(sim)
	}
	if sim < b.threshold {
		return
	}
	b.out.Findings = append(b.out.Findings, DoppelgangerFinding{
		Account: acct, Addr: addr, Similarity: sim, Kind: kind, Hijacker: hijacker,
	})
	if hijacker {
		b.out.TruePositives++
	} else {
		b.out.FalsePositives++
	}
}

// DoppelgangerEval scores the settings observed so far.
func (b *DoppelgangerBuilder) DoppelgangerEval() DoppelgangerEval {
	out := b.out
	out.Precision = stats.Ratio(float64(out.TruePositives), float64(out.TruePositives+out.FalsePositives))
	out.Recall = stats.Ratio(float64(out.TruePositives), float64(out.HijackerSettings))
	out.MeanHijackerSim = b.hijackSim.Mean()
	out.MeanOwnerSim = b.ownerSim.Mean()
	return out
}
