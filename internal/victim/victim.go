// Package victim implements the organic-user agents: routine logins and
// mail activity (the background traffic hijackers blend into, §5.1/§8.1),
// reactions to scams and phishing landing in their inboxes (spam reports —
// the +39% report spike of §5.3), and hijack discovery leading to recovery
// claims — via proactive notifications, lockout discovery at the next
// login, or eventually noticing on their own (§6.2).
package victim

import (
	"time"

	"manualhijack/internal/auth"
	"manualhijack/internal/challenge"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/mail"
	"manualhijack/internal/randx"
	"manualhijack/internal/recovery"
	"manualhijack/internal/simtime"
)

// Config tunes organic-user behavior.
type Config struct {
	// MeanLoginInterval is the mean time between a user's sessions.
	MeanLoginInterval time.Duration
	// ActiveShare is the fraction of the population that logs in at all
	// during the window (the rest are dormant).
	ActiveShare float64
	// SpamReportRate is the chance a recipient reports a scam/phish
	// delivery.
	SpamReportRate float64
	// OrganicReportRate is the (small) chance organic mail gets reported —
	// the noise that forces the paper's manual curation of Dataset 1.
	OrganicReportRate float64
	// NotificationReactRate is the chance a notified owner reacts promptly.
	NotificationReactRate float64
	// NotificationReactDelay is the mean prompt-reaction delay.
	NotificationReactDelay time.Duration
	// LockoutRealizeDelay is the mean time from a failed owner login to
	// filing a claim.
	LockoutRealizeDelay time.Duration
	// TravelRate is the chance an organic session comes from an unusual
	// country (travel, VPNs) — the source of login-risk false positives
	// that §8.1's tuning discussion is about.
	TravelRate float64
	// ScamFallRate is the chance a plea recipient engages with a scam
	// (replies to the call for help — round one of the two-round flow
	// §5.4 describes).
	ScamFallRate float64
	// ScamPayRate is the chance an engaged recipient, whose reply reached
	// the criminal, completes the wire transfer.
	ScamPayRate float64
}

// DefaultConfig returns the study defaults.
func DefaultConfig() Config {
	return Config{
		MeanLoginInterval:      30 * time.Hour,
		ActiveShare:            0.75,
		SpamReportRate:         0.12,
		OrganicReportRate:      0.004,
		NotificationReactRate:  0.40,
		NotificationReactDelay: time.Hour,
		LockoutRealizeDelay:    4 * time.Hour,
		TravelRate:             0.03,
		ScamFallRate:           0.015,
		ScamPayRate:            0.45,
	}
}

// Manager drives every organic user. It implements auth.Notifier and
// playbook.Listener.
type Manager struct {
	cfg   Config
	clock *simtime.Clock
	rng   *randx.Rand
	dir   *identity.Directory
	mail  *mail.Service
	auth  *auth.Service
	rec   *recovery.Service
	plan  *geo.IPPlan
	store *logstore.Store

	// knownPassword is what each owner believes their password is.
	knownPassword map[identity.AccountID]string
	// hijacks tracks ground-truth hijack anchors for latency measurement.
	hijacks map[identity.AccountID]*hijackInfo
	end     time.Time
}

type hijackInfo struct {
	start   time.Time
	flagged time.Time // first out-of-band notification (detection anchor)
	claimed bool
	crew    string
	// reactDecided fixes the owner's prompt-reaction coin flip: one draw
	// per hijack, not one per notification (a hijack triggers several).
	reactDecided bool
	reacts       bool
}

// NewManager assembles the organic-user population driver.
func NewManager(
	cfg Config,
	clock *simtime.Clock,
	rng *randx.Rand,
	dir *identity.Directory,
	mailSvc *mail.Service,
	authSvc *auth.Service,
	rec *recovery.Service,
	plan *geo.IPPlan,
	store *logstore.Store,
) *Manager {
	m := &Manager{
		cfg: cfg, clock: clock, rng: rng.Fork("victims"),
		dir: dir, mail: mailSvc, auth: authSvc, rec: rec, plan: plan,
		store:         store,
		knownPassword: make(map[identity.AccountID]string, dir.Len()),
		hijacks:       make(map[identity.AccountID]*hijackInfo),
	}
	dir.All(func(a *identity.Account) { m.knownPassword[a.ID] = a.Password })
	mailSvc.SetDeliveryHook(m.onDelivery)
	authSvc.SetNotifier(m)
	if rec != nil {
		rec.OnRecovered = func(acct identity.AccountID, newPassword string) {
			m.knownPassword[acct] = newPassword
			delete(m.hijacks, acct)
		}
	}
	return m
}

// Start schedules organic sessions for the active share of the population
// until end.
func (m *Manager) Start(end time.Time) {
	m.end = end
	m.dir.All(func(a *identity.Account) {
		if !m.rng.Bool(m.cfg.ActiveShare) {
			return
		}
		id := a.ID
		m.clock.After(m.rng.ExpDuration(m.cfg.MeanLoginInterval), func() { m.session(id) })
	})
}

// scheduleNext books the user's next session.
func (m *Manager) scheduleNext(id identity.AccountID) {
	next := m.clock.Now().Add(m.rng.ExpDuration(m.cfg.MeanLoginInterval))
	if next.After(m.end) {
		return
	}
	m.clock.Schedule(next, func() { m.session(id) })
}

// session runs one organic user session: login (discovering lockout if the
// password changed), a few mailbox actions, maybe a small send.
func (m *Manager) session(id identity.AccountID) {
	a := m.dir.Get(id)
	if a == nil {
		return
	}
	country := a.HomeCountry
	if m.rng.Bool(m.cfg.TravelRate) {
		country = randx.Pick(m.rng, geo.AllCountries())
	}
	res := m.auth.Login(auth.LoginReq{
		Account:   id,
		Password:  m.knownPassword[id],
		IP:        m.plan.Addr(m.rng, country),
		DeviceID:  ownerDevice(id),
		Principal: m.principal(a),
		Actor:     event.ActorOwner,
	})
	switch res.Outcome {
	case event.LoginWrongPassword, event.LoginChallengeFailed:
		// The real owner typing the right-but-stale password, or locked
		// out by hijacker 2SV: realization dawns.
		if m.knownPassword[id] != a.Password || a.LockedByPhone {
			m.clock.After(m.rng.ExpDuration(m.cfg.LockoutRealizeDelay), func() {
				m.fileClaim(id, "lockout")
			})
		}
		m.scheduleNext(id)
		return
	case event.LoginBlocked:
		// The account was disabled by anti-abuse systems (§6.1's other
		// recovery trigger): the owner contacts recovery.
		if a.DisabledByAnti {
			m.clock.After(m.rng.ExpDuration(m.cfg.LockoutRealizeDelay), func() {
				m.fileClaim(id, "suspended")
			})
		}
		m.scheduleNext(id)
		return
	}

	// Routine activity.
	sess := res.Session
	if m.rng.Bool(0.5) {
		m.mail.Search(id, randx.Pick(m.rng, mail.FillerKeywords), sess, event.ActorOwner)
	}
	// Owners occasionally configure redirections themselves — the noise
	// floor for the doppelganger detector (§5.4) and the behavioral model
	// (§8.1: "normal users also ... set up email filters").
	if m.rng.Bool(0.01) && a.SecondaryEmail != "" {
		m.mail.SetReplyTo(id, a.SecondaryEmail, sess, event.ActorOwner)
	}
	if m.rng.Bool(0.008) {
		m.mail.CreateFilter(id, mail.Filter{ToTrash: true}, sess, event.ActorOwner)
	}
	if m.rng.Bool(0.8) {
		m.mail.OpenFolder(id, event.FolderInbox, sess, event.ActorOwner)
	}
	if m.rng.Bool(0.05) {
		m.mail.OpenFolder(id, event.FolderStarred, sess, event.ActorOwner)
	}
	if len(a.Contacts) > 0 {
		sends := m.rng.Poisson(1.4)
		for i := 0; i < sends; i++ {
			n := 1 + m.rng.Intn(4)
			if n > len(a.Contacts) {
				n = len(a.Contacts)
			}
			m.mail.Send(mail.SendReq{
				FromAcct: id, FromAddr: a.Addr,
				Recipients: randx.Sample(m.rng, a.Contacts, n),
				Keywords:   []string{randx.Pick(m.rng, mail.FillerKeywords)},
				Class:      event.ClassOrganic, Session: sess, Actor: event.ActorOwner,
			})
		}
	}
	m.scheduleNext(id)
}

func (m *Manager) principal(a *identity.Account) challenge.Principal {
	var phones []geo.Phone
	if a.Phone != "" {
		phones = append(phones, a.Phone)
	}
	if a.TwoSVPhone != "" && !a.LockedByPhone {
		phones = append(phones, a.TwoSVPhone)
	}
	return challenge.Principal{Phones: phones, KnowledgeSkill: 0.85}
}

func ownerDevice(id identity.AccountID) string {
	return identity.DeviceFingerprint(id)
}

// PrimeRisk seeds the login-risk analyzer with each account's home
// country and usual device so the measurement window starts with warm
// baselines.
func (m *Manager) PrimeRisk() {
	an := m.auth.Analyzer()
	if an == nil {
		return
	}
	m.dir.All(func(a *identity.Account) {
		an.PrimeAccount(a.ID, a.HomeCountry, ownerDevice(a.ID))
	})
}

// onDelivery reacts to mail landing in a provider inbox: scams and phish
// get reported at SpamReportRate; a sliver of organic mail is reported too
// (the noise the paper had to curate away); and a small share of scam
// recipients engage with the plea.
func (m *Manager) onDelivery(rcpt identity.AccountID, msg mail.Message) {
	if msg.Class == event.ClassScam {
		m.maybeEngageScam(rcpt, msg)
	}
	var report bool
	switch msg.Class {
	case event.ClassScam, event.ClassPhish, event.ClassLure, event.ClassSpamBulk:
		report = m.rng.Bool(m.cfg.SpamReportRate)
	case event.ClassOrganic:
		report = m.rng.Bool(m.cfg.OrganicReportRate)
	}
	if !report {
		return
	}
	id, from, fromAcct, class := msg.ID, msg.From, m.dir.Lookup(msg.From), msg.Class
	m.clock.After(m.rng.ExpDuration(4*time.Hour), func() {
		m.mail.ReportSpam(rcpt, id, from, fromAcct, class)
	})
}

// maybeEngageScam runs the two-round scam funnel (§5.3/§5.4): the plea
// recipient replies; the reply reaches the criminal via a doppelganger
// Reply-To, a forwarding filter, or retained account access (the victim
// has not recovered yet); the criminal's follow-up with transfer details
// sometimes converts to a wire.
func (m *Manager) maybeEngageScam(rcpt identity.AccountID, msg mail.Message) {
	if !m.rng.Bool(m.cfg.ScamFallRate) {
		return
	}
	victimAcct := m.dir.Lookup(msg.From)
	if victimAcct == identity.None {
		return
	}
	replyTo, forwarded := msg.ReplyTo, msg.Forwarded
	m.clock.After(m.rng.ExpDuration(9*time.Hour), func() {
		via := "lost"
		switch {
		case replyTo != "":
			via = "replyto"
		case forwarded || m.mail.Mailbox(victimAcct).HasForwardingFilter():
			via = "filter"
		default:
			// Retained access: the owner hasn't recovered yet, so the
			// criminal can still read the mailbox.
			if info, ok := m.hijacks[victimAcct]; ok && info != nil {
				via = "access"
			}
		}
		reached := via != "lost"
		m.store.Append(event.ScamReply{
			Base: event.Base{Time: m.clock.Now()}, VictimAccount: victimAcct,
			Recipient: rcpt, ReachedHijacker: reached, Via: via,
		})
		if !reached || !m.rng.Bool(m.cfg.ScamPayRate) {
			return
		}
		crew := ""
		if info := m.hijacks[victimAcct]; info != nil {
			crew = info.crew
		}
		amount := m.rng.LogNormalMedian(600, 0.8)
		// Round two (transfer details) plus the pickup: one more day.
		m.clock.After(m.rng.ExpDuration(20*time.Hour), func() {
			m.store.Append(event.MoneyWired{
				Base: event.Base{Time: m.clock.Now()}, VictimAccount: victimAcct,
				Recipient: rcpt, Crew: crew, Amount: amount,
			})
		})
	})
}

// Notified implements auth.Notifier: the owner receives an out-of-band
// notification. If it signals changes the owner didn't make, a prompt
// reaction files a recovery claim (the paper credits these notifications
// for the fastest recoveries).
func (m *Manager) Notified(acct identity.AccountID, reason string) {
	a := m.dir.Get(acct)
	if a == nil {
		return
	}
	unexpected := m.knownPassword[acct] != a.Password || a.LockedByPhone
	if !unexpected {
		return // the owner made this change (or it's a blocked-login heads-up)
	}
	info := m.hijackState(acct)
	if info.flagged.IsZero() {
		info.flagged = m.clock.Now()
	}
	if !info.reactDecided {
		info.reactDecided = true
		info.reacts = m.rng.Bool(m.cfg.NotificationReactRate)
		if info.reacts {
			m.clock.After(m.rng.ExpDuration(m.cfg.NotificationReactDelay), func() {
				m.fileClaim(acct, "notification")
			})
		}
	}
}

// HijackEnded implements playbook.Listener: records the ground-truth
// anchor, and for in-the-shadow hijacks (no lockout) gives the owner a
// chance to notice the strange sent mail eventually.
func (m *Manager) HijackEnded(crew string, acct identity.AccountID, hijackedAt time.Time, lockedOut, exploited bool) {
	info := m.hijackState(acct)
	info.start = hijackedAt
	info.crew = crew
	if !lockedOut && exploited && m.rng.Bool(0.35) {
		m.clock.After(m.rng.ExpDuration(48*time.Hour), func() {
			m.fileClaim(acct, "noticed")
		})
	}
}

func (m *Manager) hijackState(acct identity.AccountID) *hijackInfo {
	info := m.hijacks[acct]
	if info == nil {
		info = &hijackInfo{}
		m.hijacks[acct] = info
	}
	return info
}

// fileClaim routes to the recovery service with the latency anchors.
func (m *Manager) fileClaim(acct identity.AccountID, trigger string) {
	if m.rec == nil {
		return
	}
	info := m.hijackState(acct)
	if info.claimed {
		return
	}
	info.claimed = true
	now := m.clock.Now()
	hijackedAt := info.start
	if hijackedAt.IsZero() {
		hijackedAt = now
	}
	flaggedAt := info.flagged
	if flaggedAt.IsZero() {
		flaggedAt = now
	}
	m.rec.FileClaim(acct, trigger, hijackedAt, flaggedAt)
}
