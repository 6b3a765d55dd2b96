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
// counters, a running revenue total (a left fold over the payments in log
// order), and the exploited-victim set.
type MonetizationBuilder struct {
	out       Monetization
	routes    stats.Counter
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
		b.out.Revenue += ev.Amount
	case event.HijackAssessed:
		if ev.Exploited {
			b.exploited[int32(ev.Account)] = true
		}
	}
}

// Monetization snapshots the funnel observed so far.
func (b *MonetizationBuilder) Monetization() Monetization {
	out := b.out
	out.ReplyRoutes = b.routes.Sorted()
	out.MeanPayment = stats.Ratio(out.Revenue, float64(out.Payments))
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
