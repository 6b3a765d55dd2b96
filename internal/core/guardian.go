package core

import (
	"time"

	"manualhijack/internal/behavior"
	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

// Guardian runs the post-login behavioral detector *online*: it watches
// the live session feed and, when a session's playbook-similarity score
// crosses the threshold, suspends the account — the paper's "account was
// disabled by our anti-abuse systems to prevent further damage" (§6.1).
//
// §8.2 frames behavioral detection as a last resort (the hijacker has
// already seen data by the time it fires); the guardian makes the residual
// value measurable: suspension blocks further logins and accelerates the
// victim toward recovery, cutting the scam window.
type Guardian struct {
	det  *behavior.Detector
	w    *World
	ids  map[event.SessionID]identity.AccountID
	done map[identity.AccountID]bool

	// Suspended counts accounts the guardian disabled.
	Suspended int
}

// newGuardian wires the detector into the world's auth and mail feeds.
func newGuardian(w *World, cfg behavior.Config) *Guardian {
	g := &Guardian{
		det:  behavior.NewDetector(cfg),
		w:    w,
		ids:  make(map[event.SessionID]identity.AccountID),
		done: make(map[identity.AccountID]bool),
	}
	w.Auth.SetSessionHook(func(acct identity.AccountID, sess event.SessionID, at time.Time) {
		g.det.Begin(sess, at)
		g.ids[sess] = acct
	})
	w.Mail.SetActionHook(g.observe)
	return g
}

// observe feeds one mailbox record and suspends on a fresh flag.
func (g *Guardian) observe(acct identity.AccountID, e event.Event) {
	sess, action, ok := behavior.ActionOf(e)
	if !ok {
		return
	}
	v := g.det.Observe(sess, action)
	if !v.FlaggedNow || g.done[acct] {
		return
	}
	g.done[acct] = true
	g.Suspended++
	g.w.Auth.Suspend(acct)
}
