package analysis

import (
	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/stats"
)

// Lifecycle is Figure 2's hijacking cycle as observed counts: credential
// acquisition → account exploitation → remediation. Each stage counts
// distinct accounts, so the funnel reads as survival through the cycle.
type Lifecycle struct {
	// Acquisition.
	LuresDelivered      int
	PageVisits          int
	CredentialsCaptured int // distinct provider accounts phished
	// Exploitation.
	AccountsAttempted int // crews tried to log in
	AccountsEntered   int // hijacker login succeeded
	AccountsExploited int
	AccountsLockedOut int
	// Remediation.
	ClaimsFiled       int
	AccountsRecovered int
}

// Rates returns the per-stage survival fractions (each stage over the
// previous), in funnel order.
func (l Lifecycle) Rates() []stats.Entry {
	type stage struct {
		name string
		num  int
		den  int
	}
	stages := []stage{
		{"visit|lure", l.PageVisits, l.LuresDelivered},
		{"credential|visit", l.CredentialsCaptured, l.PageVisits},
		{"attempt|credential", l.AccountsAttempted, l.CredentialsCaptured},
		{"entry|attempt", l.AccountsEntered, l.AccountsAttempted},
		{"exploit|entry", l.AccountsExploited, l.AccountsEntered},
		{"lockout|exploit", l.AccountsLockedOut, l.AccountsExploited},
		{"claim|entry", l.ClaimsFiled, l.AccountsEntered},
		{"recovered|claim", l.AccountsRecovered, l.ClaimsFiled},
	}
	out := make([]stats.Entry, 0, len(stages))
	for _, s := range stages {
		out = append(out, stats.Entry{
			Key:   s.name,
			Count: s.num,
			Share: stats.Ratio(float64(s.num), float64(s.den)),
		})
	}
	return out
}

// LifecycleBuilder tallies Figure 2's cycle from the log: it consumes
// events one at a time and can report the funnel at any instant. Like
// every builder in this package it is single-goroutine; the stream.Bus
// serializes concurrent feeds.
type LifecycleBuilder struct {
	lures, visits             int
	creds, attempted, entered map[identity.AccountID]bool
	exploited, locked         map[identity.AccountID]bool
	claimed, recovered        map[identity.AccountID]bool
}

// NewLifecycleBuilder returns an empty builder.
func NewLifecycleBuilder() *LifecycleBuilder {
	return &LifecycleBuilder{
		creds:     map[identity.AccountID]bool{},
		attempted: map[identity.AccountID]bool{},
		entered:   map[identity.AccountID]bool{},
		exploited: map[identity.AccountID]bool{},
		locked:    map[identity.AccountID]bool{},
		claimed:   map[identity.AccountID]bool{},
		recovered: map[identity.AccountID]bool{},
	}
}

// Observe folds one event into the funnel.
func (b *LifecycleBuilder) Observe(e event.Event) {
	switch ev := e.(type) {
	case event.LureSent:
		b.lures++
	case event.PageHit:
		if ev.Method == "GET" {
			b.visits++
		}
	case event.CredentialPhished:
		b.creds[ev.Account] = true
	case event.Login:
		if ev.Actor == event.ActorHijacker {
			b.attempted[ev.Account] = true
			if ev.Outcome == event.LoginSuccess {
				b.entered[ev.Account] = true
			}
		}
	case event.HijackAssessed:
		if ev.Exploited {
			b.exploited[ev.Account] = true
		}
	case event.HijackEnded:
		if ev.LockedOut {
			b.locked[ev.Account] = true
		}
	case event.ClaimFiled:
		b.claimed[ev.Account] = true
	case event.ClaimResolved:
		if ev.Success {
			b.recovered[ev.Account] = true
		}
	}
}

// Lifecycle snapshots the funnel observed so far.
func (b *LifecycleBuilder) Lifecycle() Lifecycle {
	return Lifecycle{
		LuresDelivered:      b.lures,
		PageVisits:          b.visits,
		CredentialsCaptured: len(b.creds),
		AccountsAttempted:   len(b.attempted),
		AccountsEntered:     len(b.entered),
		AccountsExploited:   len(b.exploited),
		AccountsLockedOut:   len(b.locked),
		ClaimsFiled:         len(b.claimed),
		AccountsRecovered:   len(b.recovered),
	}
}
