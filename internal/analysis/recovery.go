package analysis

import (
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
	"manualhijack/internal/stats"
)

// Figure9 is the recovery-latency distribution (Dataset 11): time from
// the system flagging the hijack to the owner regaining exclusive control.
type Figure9 struct {
	Recoveries   int
	Within1Hour  float64       // paper: 22%
	Within13Hour float64       // paper: 50%
	Latencies    *stats.Sample // hours
}

// Figure9Builder reproduces Figure 9: it accumulates Dataset 11's
// population (successful recoveries, in log order; the paper's 5000
// recoveries) and draws the dataset's deterministic sample at snapshot
// time.
type Figure9Builder struct {
	recovered []event.ClaimResolved
}

// NewFigure9Builder returns an empty builder.
func NewFigure9Builder() *Figure9Builder { return &Figure9Builder{} }

// Observe folds one event into the Dataset 11 population.
func (b *Figure9Builder) Observe(e event.Event) {
	if r, ok := e.(event.ClaimResolved); ok && r.Success {
		b.recovered = append(b.recovered, r)
	}
}

// Figure9 snapshots the figure from the recoveries observed so far.
func (b *Figure9Builder) Figure9(sampleSize int) Figure9 {
	fig := Figure9{Latencies: &stats.Sample{}}
	for _, r := range sampleN(11, b.recovered, sampleSize) {
		if r.FlaggedAt.IsZero() {
			continue
		}
		lat := r.When().Sub(r.FlaggedAt)
		if lat < 0 {
			continue
		}
		fig.Recoveries++
		fig.Latencies.Add(lat.Hours())
	}
	if fig.Recoveries > 0 {
		fig.Within1Hour = fig.Latencies.FracBelow(1)
		fig.Within13Hour = fig.Latencies.FracBelow(13)
	}
	return fig
}

// MethodStats is one row of Figure 10.
type MethodStats struct {
	Attempts  int
	Successes int
	Rate      float64
}

// Figure10 is the per-method recovery success rate (Dataset 12).
type Figure10 struct {
	Methods map[event.RecoveryMethod]MethodStats
}

// Figure10Builder reproduces Figure 10 over the claim attempts in a
// window — the paper used a full month of claims "to avoid sample bias
// issues", so Dataset 12 is not sampled. It buffers the dataset's
// population (legitimate claim attempts) and applies the window filter at
// snapshot time, when the bounds are known. Impostor attempts are
// excluded: at provider scale they are a negligible sliver of claims, but
// the simulation's boosted hijack intensity would otherwise drag every
// method's measured success rate down with "not the claimant's phone"
// failures.
type Figure10Builder struct {
	attempts []event.ClaimAttempt
}

// NewFigure10Builder returns an empty builder.
func NewFigure10Builder() *Figure10Builder { return &Figure10Builder{} }

// Observe folds one event into the Dataset 12 population.
func (b *Figure10Builder) Observe(e event.Event) {
	if a, ok := e.(event.ClaimAttempt); ok && a.Actor != event.ActorHijacker {
		b.attempts = append(b.attempts, a)
	}
}

// Figure10 snapshots the figure over the attempts in [from, to) observed
// so far.
func (b *Figure10Builder) Figure10(from, to time.Time) Figure10 {
	fig := Figure10{Methods: map[event.RecoveryMethod]MethodStats{}}
	for _, a := range b.attempts {
		if a.When().Before(from) || !a.When().Before(to) {
			continue
		}
		m := fig.Methods[a.Method]
		m.Attempts++
		if a.Success {
			m.Successes++
		}
		m.Rate = stats.Ratio(float64(m.Successes), float64(m.Attempts))
		fig.Methods[a.Method] = m
	}
	return fig
}

// RecoveryChannels summarizes §6.3's channel-reliability estimates.
type RecoveryChannels struct {
	// RecycledShare is the fraction of on-file secondary emails that were
	// recycled by their upstream provider (paper: ~7%).
	RecycledShare float64
	// BounceShare is the fraction of email verification attempts that
	// bounced (paper: ~5%).
	BounceShare float64
	// EmailOfferedShare is how often email was offered among claims from
	// accounts with a secondary on file (recycled ones are withheld).
	EmailAttempts int
}

// RecoveryChannelsBuilder reproduces the §6.3 reliability estimates from
// the claim-attempt log and the population: two counters over email
// verification attempts.
type RecoveryChannelsBuilder struct {
	emailAttempts int
	bounces       int
}

// NewRecoveryChannelsBuilder returns an empty builder.
func NewRecoveryChannelsBuilder() *RecoveryChannelsBuilder {
	return &RecoveryChannelsBuilder{}
}

// Observe folds one event into the email-channel tallies.
func (b *RecoveryChannelsBuilder) Observe(e event.Event) {
	a, ok := e.(event.ClaimAttempt)
	if !ok || a.Method != event.MethodEmail {
		return
	}
	b.emailAttempts++
	if !a.Success && a.Reason == "bounce" {
		b.bounces++
	}
}

// RecoveryChannels snapshots the estimates observed so far; the secondary
// email totals come from the directory, not the log.
func (b *RecoveryChannelsBuilder) RecoveryChannels(secondaryTotal, secondaryRecycled int) RecoveryChannels {
	out := RecoveryChannels{
		RecycledShare: stats.Ratio(float64(secondaryRecycled), float64(secondaryTotal)),
		EmailAttempts: b.emailAttempts,
	}
	out.BounceShare = stats.Ratio(float64(b.bounces), float64(out.EmailAttempts))
	return out
}

// RemissionStats summarizes §6.4/§5.4: how often recovery restored
// hijacker-deleted content and cleared hijacker settings.
type RemissionStats struct {
	Remissions       int
	WithRestore      int
	WithSettingClear int
}

// RemissionBuilder tallies remission outcomes: three counters over
// remission events.
type RemissionBuilder struct {
	out RemissionStats
}

// NewRemissionBuilder returns an empty builder.
func NewRemissionBuilder() *RemissionBuilder { return &RemissionBuilder{} }

// Observe folds one event into the tallies.
func (b *RemissionBuilder) Observe(e event.Event) {
	r, ok := e.(event.Remission)
	if !ok {
		return
	}
	b.out.Remissions++
	if r.RestoredMessages > 0 {
		b.out.WithRestore++
	}
	if r.ClearedSettings {
		b.out.WithSettingClear++
	}
}

// Remission snapshots the tallies observed so far.
func (b *RemissionBuilder) Remission() RemissionStats { return b.out }

// RecoveryFraud summarizes §6.3's impostor risk: hijackers filing
// fraudulent claims on accounts whose phished passwords went stale.
type RecoveryFraud struct {
	Attempts  int
	Successes int
	Rate      float64
}

// ComputeRecoveryFraud tallies impostor claims from the log.
func ComputeRecoveryFraud(s *logstore.Store) RecoveryFraud {
	var out RecoveryFraud
	for _, r := range logstore.Select[event.ClaimResolved](s) {
		if r.Actor != event.ActorHijacker {
			continue
		}
		out.Attempts++
		if r.Success {
			out.Successes++
		}
	}
	out.Rate = stats.Ratio(float64(out.Successes), float64(out.Attempts))
	return out
}
