package analysis

import (
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
	"manualhijack/internal/stats"
)

// Monetization is the scam funnel the whole hijack exists for: pleas sent
// from hijacked accounts → recipients who engage → replies that actually
// reach the criminal (via doppelganger Reply-To, forwarding filter, or
// retained access) → completed wire transfers. §5.4 explains why account
// retention matters to criminals: "even the shortest process may take one
// or two days"; the funnel quantifies how each defense cuts revenue.
type Monetization struct {
	PleaRecipients int // scam-message recipient slots
	Replies        int
	ReachedCrew    int
	Payments       int
	Revenue        float64 // USD
	// ReplyRoutes breaks down how replies reached (or failed to reach)
	// the criminal.
	ReplyRoutes []stats.Entry
	// RevenuePerHijack normalizes by exploited-hijack count.
	RevenuePerHijack float64
	MeanPayment      float64
}

// MonetizationBuilder tallies the scam funnel from the log: funnel
// counters, the payment distribution, and the exploited-victim set.
// Revenue is summed at snapshot time as a left fold over the payment
// sample, which keeps payments in log order — so the floating-point
// revenue total is bit-identical whether the builder observed the whole
// log or was merged from per-segment shards.
type MonetizationBuilder struct {
	out       Monetization
	routes    stats.Counter
	payments  stats.Sample
	exploited map[int32]bool
}

// NewMonetizationBuilder returns an empty builder.
func NewMonetizationBuilder() *MonetizationBuilder {
	return &MonetizationBuilder{exploited: map[int32]bool{}}
}

// Observe folds one event into the funnel.
func (b *MonetizationBuilder) Observe(e event.Event) {
	switch ev := e.(type) {
	case event.MessageSent:
		if ev.Actor == event.ActorHijacker && ev.Class == event.ClassScam {
			b.out.PleaRecipients += len(ev.Recipients)
		}
	case event.ScamReply:
		b.out.Replies++
		b.routes.Add(ev.Via)
		if ev.ReachedHijacker {
			b.out.ReachedCrew++
		}
	case event.MoneyWired:
		b.out.Payments++
		b.payments.Add(ev.Amount)
	case event.HijackAssessed:
		if ev.Exploited {
			b.exploited[int32(ev.Account)] = true
		}
	}
}

// Merge folds a later partition's funnel into b: counters add, routes and
// payments merge in partition order, the exploited set unions.
func (b *MonetizationBuilder) Merge(other *MonetizationBuilder) {
	b.out.PleaRecipients += other.out.PleaRecipients
	b.out.Replies += other.out.Replies
	b.out.ReachedCrew += other.out.ReachedCrew
	b.out.Payments += other.out.Payments
	b.routes.Merge(&other.routes)
	b.payments.Merge(&other.payments)
	for a := range other.exploited {
		b.exploited[a] = true
	}
}

// Monetization snapshots the funnel observed so far.
func (b *MonetizationBuilder) Monetization() Monetization {
	out := b.out
	out.Revenue = b.payments.Sum()
	out.ReplyRoutes = b.routes.Sorted()
	out.MeanPayment = b.payments.Mean()
	out.RevenuePerHijack = 0
	if len(b.exploited) > 0 {
		out.RevenuePerHijack = out.Revenue / float64(len(b.exploited))
	}
	return out
}

// RevenueByCrew splits scam revenue per hijacker group.
func RevenueByCrew(s *logstore.Store) []stats.Entry {
	var c stats.Counter
	for _, p := range logstore.Select[event.MoneyWired](s) {
		crew := p.Crew
		if crew == "" {
			crew = "(unattributed)"
		}
		c.AddN(crew, int(p.Amount))
	}
	return c.Sorted()
}
