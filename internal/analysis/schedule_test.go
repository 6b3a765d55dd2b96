package analysis

import (
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
)

// seedSchedule writes hijacker logins following an office schedule:
// weekdays 08–17 UTC with a dead hour at 12.
func seedSchedule(s *logstore.Store) {
	day := time.Date(2012, 11, 5, 0, 0, 0, 0, time.UTC) // a Monday
	id := identity.AccountID(1)
	for d := 0; d < 14; d++ {
		cur := day.Add(time.Duration(d) * 24 * time.Hour)
		switch cur.Weekday() {
		case time.Saturday, time.Sunday:
			continue
		}
		for h := 8; h < 17; h++ {
			if h == 12 {
				continue // lunch
			}
			for k := 0; k < 3; k++ {
				s.Append(event.Login{
					Base:    event.Base{Time: cur.Add(time.Duration(h)*time.Hour + time.Duration(k)*7*time.Minute)},
					Account: id, Actor: event.ActorHijacker, Outcome: event.LoginSuccess,
				})
				id++
			}
		}
	}
}

func TestComputeWorkSchedule(t *testing.T) {
	s := logstore.New()
	seedSchedule(s)
	ws := Fold(s, NewWorkScheduleBuilder()).WorkSchedule()
	if ws.Logins == 0 {
		t.Fatal("no logins")
	}
	if ws.WeekendShare != 0 {
		t.Fatalf("weekend share = %v, want 0 for an office schedule", ws.WeekendShare)
	}
	if ws.LunchDip < 0.95 {
		t.Fatalf("lunch dip = %v, want ~1 (full stop)", ws.LunchDip)
	}
	if ws.ActiveHours < 7 || ws.ActiveHours > 9 {
		t.Fatalf("active hours = %d, want ~8 (9h shift minus lunch)", ws.ActiveHours)
	}
	// No activity outside the shift.
	if ws.HourlyShare[3] != 0 || ws.HourlyShare[22] != 0 {
		t.Fatalf("night activity present: %v", ws.HourlyShare)
	}
}

func TestWorkScheduleEmpty(t *testing.T) {
	ws := Fold(logstore.New(), NewWorkScheduleBuilder()).WorkSchedule()
	if ws.Logins != 0 || ws.WeekendShare != 0 || ws.LunchDip != 0 {
		t.Fatalf("empty schedule = %+v", ws)
	}
}

func TestEvaluateDoppelgangerDetector(t *testing.T) {
	cfg := identity.DefaultConfig(time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC))
	cfg.N = 10
	dir := newTestDirectory(t, cfg)
	s := logstore.New()
	a := dir.Get(1)

	// Hijacker sets a typo doppelganger of the victim's own address.
	doppel := identity.Address("x" + string(a.Addr))
	s.Append(event.ReplyToSet{Base: at(0), Account: a.ID, Addr: doppel, Actor: event.ActorHijacker})
	// Owner sets a clearly different alternate address.
	s.Append(event.ReplyToSet{Base: at(1), Account: 2, Addr: "completely-different@web.org", Actor: event.ActorOwner})
	// Hijacker forwards to an unrelated drop box (a miss for the detector).
	s.Append(event.FilterCreated{Base: at(2), Account: 3, ForwardTo: "dropbox9@evil.test", Actor: event.ActorHijacker})

	ev := Fold(s, NewDoppelgangerBuilder(dir, 0.75)).DoppelgangerEval()
	if ev.TruePositives != 1 {
		t.Fatalf("tp = %d, want the typo doppelganger flagged", ev.TruePositives)
	}
	if ev.FalsePositives != 0 {
		t.Fatalf("fp = %d (owner alternate flagged?)", ev.FalsePositives)
	}
	if ev.HijackerSettings != 2 {
		t.Fatalf("hijacker settings = %d", ev.HijackerSettings)
	}
	if ev.Recall != 0.5 || ev.Precision != 1 {
		t.Fatalf("eval = %+v", ev)
	}
	if ev.MeanHijackerSim <= ev.MeanOwnerSim {
		t.Fatal("similarity separation missing")
	}
}

func newTestDirectory(t *testing.T, cfg identity.Config) *identity.Directory {
	t.Helper()
	return identity.NewDirectory(randx.New(1), cfg)
}

func TestComputeLifecycle(t *testing.T) {
	s := logstore.New()
	s.Append(event.LureSent{Base: at(0), Victim: "v@x.edu"})
	s.Append(event.LureSent{Base: at(1), Victim: "w@x.edu"})
	s.Append(event.PageHit{Base: at(2), Page: 1, Method: "GET"})
	s.Append(event.CredentialPhished{Base: at(3), Account: 1})
	s.Append(event.Login{Base: at(4), Account: 1, Actor: event.ActorHijacker, Outcome: event.LoginSuccess})
	s.Append(event.HijackAssessed{Base: at(5), Account: 1, Exploited: true})
	s.Append(event.HijackEnded{Base: at(6), Account: 1, LockedOut: true})
	s.Append(event.ClaimFiled{Base: at(7), Account: 1})
	s.Append(event.ClaimResolved{Base: at(8), Account: 1, Success: true})

	l := Fold(s, NewLifecycleBuilder()).Lifecycle()
	if l.LuresDelivered != 2 || l.PageVisits != 1 || l.CredentialsCaptured != 1 {
		t.Fatalf("acquisition = %+v", l)
	}
	if l.AccountsAttempted != 1 || l.AccountsEntered != 1 || l.AccountsExploited != 1 {
		t.Fatalf("exploitation = %+v", l)
	}
	if l.ClaimsFiled != 1 || l.AccountsRecovered != 1 {
		t.Fatalf("remediation = %+v", l)
	}
	rates := l.Rates()
	if len(rates) != 8 {
		t.Fatalf("rates = %v", rates)
	}
	for _, r := range rates[2:] {
		if r.Share != 1 {
			t.Fatalf("funnel stage %s = %v, want 1 in this toy log", r.Key, r.Share)
		}
	}
}

// Property: every funnel stage share stays within [0, ∞) and distinct-
// account stages never exceed their upstream counts for arbitrary worlds
// is covered by the world-level test; here, the trivial bound.
func TestLifecycleRatesNonNegative(t *testing.T) {
	l := Lifecycle{}
	for _, r := range l.Rates() {
		if r.Share != 0 {
			t.Fatalf("empty lifecycle stage %s = %v", r.Key, r.Share)
		}
	}
}

func TestSafeBrowsingWeekly(t *testing.T) {
	s := logstore.New()
	start := t0
	s.Append(event.PageDetected{Base: event.Base{Time: start.Add(2 * 24 * time.Hour)}, Page: 1})
	s.Append(event.PageDetected{Base: event.Base{Time: start.Add(3 * 24 * time.Hour)}, Page: 2})
	s.Append(event.PageDetected{Base: event.Base{Time: start.Add(10 * 24 * time.Hour)}, Page: 3})
	weeks := SafeBrowsingWeekly(s, start)
	if len(weeks) != 2 || weeks[0] != 2 || weeks[1] != 1 {
		t.Fatalf("weekly = %v", weeks)
	}
}

func TestComputeRemission(t *testing.T) {
	s := logstore.New()
	s.Append(event.Remission{Base: at(0), Account: 1, RestoredMessages: 12, ClearedSettings: true})
	s.Append(event.Remission{Base: at(1), Account: 2})
	r := Fold(s, NewRemissionBuilder()).Remission()
	if r.Remissions != 2 || r.WithRestore != 1 || r.WithSettingClear != 1 {
		t.Fatalf("remission = %+v", r)
	}
}

func TestMonetizationAndRevenueByCrew(t *testing.T) {
	s := logstore.New()
	s.Append(event.MessageSent{Base: at(0), FromAcct: 1, Class: event.ClassScam,
		Actor: event.ActorHijacker, Recipients: []identity.Address{"a@b.test", "c@d.test"}})
	s.Append(event.HijackAssessed{Base: at(1), Account: 1, Exploited: true})
	s.Append(event.ScamReply{Base: at(2), VictimAccount: 1, Recipient: 2, ReachedHijacker: true, Via: "access"})
	s.Append(event.ScamReply{Base: at(3), VictimAccount: 1, Recipient: 3, Via: "lost"})
	s.Append(event.MoneyWired{Base: at(4), VictimAccount: 1, Recipient: 2, Crew: "ng", Amount: 500})
	s.Append(event.MoneyWired{Base: at(5), VictimAccount: 1, Recipient: 4, Crew: "ci", Amount: 200})

	m := Fold(s, NewMonetizationBuilder()).Monetization()
	if m.PleaRecipients != 2 || m.Replies != 2 || m.ReachedCrew != 1 {
		t.Fatalf("funnel = %+v", m)
	}
	if m.Payments != 2 || m.Revenue != 700 || m.RevenuePerHijack != 700 {
		t.Fatalf("revenue = %+v", m)
	}
	if m.MeanPayment != 350 {
		t.Fatalf("mean payment = %v", m.MeanPayment)
	}
	by := RevenueByCrew(s)
	if len(by) != 2 || by[0].Key != "ng" || by[0].Count != 500 {
		t.Fatalf("by crew = %v", by)
	}
}

func TestComputeRecoveryFraud(t *testing.T) {
	s := logstore.New()
	s.Append(event.ClaimResolved{Base: at(0), Account: 1, Success: false, Actor: event.ActorHijacker})
	s.Append(event.ClaimResolved{Base: at(1), Account: 2, Success: true, Actor: event.ActorHijacker})
	s.Append(event.ClaimResolved{Base: at(2), Account: 3, Success: true, Actor: event.ActorOwner})
	fr := ComputeRecoveryFraud(s)
	if fr.Attempts != 2 || fr.Successes != 1 || fr.Rate != 0.5 {
		t.Fatalf("fraud = %+v", fr)
	}
}
