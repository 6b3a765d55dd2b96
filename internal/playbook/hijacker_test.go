package playbook

import (
	"fmt"
	"testing"
	"time"

	"manualhijack/internal/auth"
	"manualhijack/internal/challenge"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/mail"
	"manualhijack/internal/phishkit"
	"manualhijack/internal/randx"
	"manualhijack/internal/simtime"
)

type world struct {
	clock *simtime.Clock
	log   *logstore.Store
	dir   *identity.Directory
	mail  *mail.Service
	env   Env
}

// newWorld builds a small world with a permissive login defense so crew
// behavior (not the defense) is under test.
func newWorld(t *testing.T, seed int64, accounts int) *world {
	t.Helper()
	// Start on a Monday 00:00 UTC so work-hour math is predictable.
	start := time.Date(2012, 11, 5, 0, 0, 0, 0, time.UTC)
	clock := simtime.NewClock(start)
	rng := randx.New(seed)
	idCfg := identity.DefaultConfig(start)
	idCfg.N = accounts
	dir := identity.NewDirectory(rng, idCfg)
	log := logstore.New()
	plan := geo.NewIPPlan(4)
	mailSvc := mail.NewService(dir, clock, log)
	mailSvc.Seed(rng, mail.DefaultSeedConfig())
	ch := challenge.New(challenge.DefaultConfig(), rng.Fork("challenge"))
	authSvc := auth.NewService(dir, clock, log, nil, ch, auth.Config{
		RiskEnabled: false, NotificationsEnabled: auth.DefaultConfig().NotificationsEnabled,
	})
	inf := phishkit.NewInfrastructure(clock, log, dir, plan, rng)
	return &world{clock: clock, log: log, dir: dir, mail: mailSvc, env: Env{
		Clock: clock, Log: log, Rng: rng, Dir: dir, Mail: mailSvc,
		Auth: authSvc, Inf: inf, Plan: plan,
	}}
}

func newCrew(w *world, cfg CrewConfig) *Crew {
	return NewCrew(cfg, w.env)
}

func feed(w *world, c phishkit.CredentialSink, accounts ...identity.AccountID) {
	for _, id := range accounts {
		a := w.dir.Get(id)
		c.CredentialCaptured(phishkit.Credential{
			Account: id, Addr: a.Addr, Password: a.Password, At: w.clock.Now(),
		})
	}
}

func TestCrewProcessesDuringWorkHours(t *testing.T) {
	w := newWorld(t, 1, 50)
	cfg := DefaultCrewConfig("ng-crew", geo.Nigeria, LangEN)
	cfg.ContactPhishing = false
	c := newCrew(w, cfg)
	c.Start(w.clock.Now().Add(3 * 24 * time.Hour))
	feed(w, c, 1, 2, 3)

	// Run to 07:00 — before work start: nothing processed.
	w.clock.RunUntil(w.clock.Now().Add(7 * time.Hour))
	if c.Processed != 0 {
		t.Fatalf("processed %d before work hours", c.Processed)
	}
	// Run through the work day.
	w.clock.RunUntil(w.clock.Now().Add(12 * time.Hour))
	if c.Processed != 3 {
		t.Fatalf("processed %d during work day, want 3", c.Processed)
	}
}

func TestCrewIdleOnWeekend(t *testing.T) {
	w := newWorld(t, 2, 20)
	cfg := DefaultCrewConfig("ci-crew", geo.IvoryCoast, LangFR)
	cfg.ContactPhishing = false
	c := newCrew(w, cfg)
	// Jump to Saturday.
	w.clock.RunUntil(w.clock.Now().Add(5 * 24 * time.Hour))
	c.Start(w.clock.Now().Add(4 * 24 * time.Hour))
	feed(w, c, 1, 2)
	// All of Saturday and Sunday: idle.
	w.clock.RunUntil(w.clock.Now().Add(2 * 24 * time.Hour))
	if c.Processed != 0 {
		t.Fatalf("processed %d on the weekend", c.Processed)
	}
	// Monday: work resumes.
	w.clock.RunUntil(w.clock.Now().Add(24 * time.Hour))
	if c.Processed != 2 {
		t.Fatalf("processed %d on Monday, want 2", c.Processed)
	}
}

func TestLunchBreak(t *testing.T) {
	w := newWorld(t, 3, 10)
	cfg := DefaultCrewConfig("x", geo.China, LangZH)
	c := newCrew(w, cfg)
	lunch := time.Date(2012, 11, 5, 12, 30, 0, 0, time.UTC)
	if c.working(lunch) {
		t.Fatal("crew working through lunch")
	}
	if !c.working(lunch.Add(time.Hour)) {
		t.Fatal("crew not back after lunch")
	}
	if c.working(time.Date(2012, 11, 5, 20, 0, 0, 0, time.UTC)) {
		t.Fatal("crew working in the evening")
	}
}

func TestHijackLifecycleEvents(t *testing.T) {
	w := newWorld(t, 4, 100)
	cfg := DefaultCrewConfig("ng-crew", geo.Nigeria, LangEN)
	cfg.ContactPhishing = false
	var ended []identity.AccountID
	w.env.Listener = listenerFunc(func(acct identity.AccountID, _ time.Time, _, _ bool) {
		ended = append(ended, acct)
	})
	c := newCrew(w, cfg)
	c.Start(w.clock.Now().Add(5 * 24 * time.Hour))
	feed(w, c, 1, 2, 3, 4, 5, 6, 7, 8)
	w.clock.RunUntil(w.clock.Now().Add(5 * 24 * time.Hour))

	started := logstore.Select[event.HijackStarted](w.log)
	assessed := logstore.Select[event.HijackAssessed](w.log)
	endedEv := logstore.Select[event.HijackEnded](w.log)
	if len(started) == 0 {
		t.Fatal("no hijacks started")
	}
	if len(started) != len(assessed) || len(started) != len(endedEv) {
		t.Fatalf("lifecycle mismatch: started=%d assessed=%d ended=%d",
			len(started), len(assessed), len(endedEv))
	}
	if len(ended) != len(endedEv) {
		t.Fatalf("listener calls = %d, events = %d", len(ended), len(endedEv))
	}
	// Assessment involves searches and ends before the session closes.
	if len(logstore.Select[event.Search](w.log)) == 0 {
		t.Fatal("no assessment searches logged")
	}
}

func TestAssessmentDurationAveragesThreeMinutes(t *testing.T) {
	w := newWorld(t, 5, 400)
	cfg := DefaultCrewConfig("crew", geo.China, LangZH)
	cfg.ContactPhishing = false
	cfg.Members = 10
	c := newCrew(w, cfg)
	c.Start(w.clock.Now().Add(20 * 24 * time.Hour))
	ids := make([]identity.AccountID, 300)
	for i := range ids {
		ids[i] = identity.AccountID(i + 1)
	}
	feed(w, c, ids...)
	w.clock.RunUntil(w.clock.Now().Add(20 * 24 * time.Hour))

	assessed := logstore.Select[event.HijackAssessed](w.log)
	if len(assessed) < 100 {
		t.Fatalf("too few assessments: %d", len(assessed))
	}
	var sum time.Duration
	for _, a := range assessed {
		sum += a.Duration
	}
	mean := sum / time.Duration(len(assessed))
	if mean < 2*time.Minute || mean > 4*time.Minute {
		t.Fatalf("mean assessment = %v, want ~3m", mean)
	}
}

func TestDecisionUsesValue(t *testing.T) {
	w := newWorld(t, 6, 300)
	cfg := DefaultCrewConfig("crew", geo.Malaysia, LangEN)
	cfg.ContactPhishing = false
	cfg.Members = 10
	c := newCrew(w, cfg)
	c.Start(w.clock.Now().Add(30 * 24 * time.Hour))
	ids := make([]identity.AccountID, 300)
	for i := range ids {
		ids[i] = identity.AccountID(i + 1)
	}
	feed(w, c, ids...)
	w.clock.RunUntil(w.clock.Now().Add(30 * 24 * time.Hour))

	// Exploited accounts should skew toward financially valuable ones.
	exploitedValue, abandonedValue := 0, 0
	exploitedN, abandonedN := 0, 0
	for _, a := range logstore.Select[event.HijackAssessed](w.log) {
		v := w.mail.FinancialValue(a.Account)
		if a.Exploited {
			exploitedValue += v
			exploitedN++
		} else {
			abandonedValue += v
			abandonedN++
		}
	}
	if exploitedN == 0 || abandonedN == 0 {
		t.Fatalf("need both outcomes: exploited=%d abandoned=%d", exploitedN, abandonedN)
	}
	if float64(exploitedValue)/float64(exploitedN) <= float64(abandonedValue)/float64(abandonedN) {
		t.Fatal("exploited accounts not more valuable than abandoned ones")
	}
}

func TestIPDiscipline(t *testing.T) {
	w := newWorld(t, 7, 600)
	cfg := DefaultCrewConfig("crew", geo.China, LangZH)
	cfg.ContactPhishing = false
	cfg.Members = 20
	cfg.IPPoolSize = 10
	c := newCrew(w, cfg)
	c.Start(w.clock.Now().Add(10 * 24 * time.Hour))
	ids := make([]identity.AccountID, 400)
	for i := range ids {
		ids[i] = identity.AccountID(i + 1)
	}
	feed(w, c, ids...)
	w.clock.RunUntil(w.clock.Now().Add(10 * 24 * time.Hour))

	// Count distinct accounts per (IP, day) from the login log.
	type key struct {
		ip  string
		day time.Time
	}
	perIPDay := map[key]map[identity.AccountID]bool{}
	for _, l := range logstore.Select[event.Login](w.log) {
		if l.Actor != event.ActorHijacker {
			continue
		}
		k := key{l.IP.String(), dayOf(l.When())}
		if perIPDay[k] == nil {
			perIPDay[k] = map[identity.AccountID]bool{}
		}
		perIPDay[k][l.Account] = true
	}
	if len(perIPDay) == 0 {
		t.Fatal("no hijacker logins")
	}
	// The mean is asserted in the Figure 8 bench, not here.
	for _, accts := range perIPDay {
		if len(accts) > 10 {
			t.Fatalf("IP used for %d accounts in one day, cap is 10", len(accts))
		}
	}
}

func TestRetentionTacticEvolution(t *testing.T) {
	run := func(tactics Tactics, seed int64) (massDeleteGivenLockout, recoveryGivenLockout float64) {
		w := newWorld(t, seed, 600)
		cfg := DefaultCrewConfig("crew", geo.Nigeria, LangEN)
		cfg.ContactPhishing = false
		cfg.Members = 20
		cfg.Tactics = tactics
		c := newCrew(w, cfg)
		c.Start(w.clock.Now().Add(30 * 24 * time.Hour))
		ids := make([]identity.AccountID, 500)
		for i := range ids {
			ids[i] = identity.AccountID(i + 1)
		}
		feed(w, c, ids...)
		w.clock.RunUntil(w.clock.Now().Add(30 * 24 * time.Hour))

		lockouts := len(logstore.Select[event.PasswordChanged](w.log))
		deletes := len(logstore.Select[event.MassDeletion](w.log))
		recChanges := len(logstore.Select[event.RecoveryChanged](w.log))
		if lockouts == 0 {
			t.Fatal("no lockouts")
		}
		return float64(deletes) / float64(lockouts), float64(recChanges) / float64(lockouts)
	}

	del11, rec11 := run(Tactics2011(), 100)
	del12, rec12 := run(Tactics2012(), 200)
	if del11 < 0.30 || del11 > 0.62 {
		t.Errorf("2011 mass-delete|lockout = %.3f, want ~0.46", del11)
	}
	if del12 > 0.08 {
		t.Errorf("2012 mass-delete|lockout = %.3f, want ~0.016", del12)
	}
	if rec11 <= rec12 {
		t.Errorf("recovery-change rate should drop 2011→2012: %.2f vs %.2f", rec11, rec12)
	}
}

func TestTwoSVLockoutUsesCrewPhones(t *testing.T) {
	w := newWorld(t, 8, 400)
	cfg := DefaultCrewConfig("ci-crew", geo.IvoryCoast, LangFR)
	cfg.ContactPhishing = false
	cfg.Members = 20
	cfg.Tactics.TwoSVLockoutRate = 1.0 // force the tactic
	c := newCrew(w, cfg)
	c.Start(w.clock.Now().Add(20 * 24 * time.Hour))
	ids := make([]identity.AccountID, 300)
	for i := range ids {
		ids[i] = identity.AccountID(i + 1)
	}
	feed(w, c, ids...)
	w.clock.RunUntil(w.clock.Now().Add(20 * 24 * time.Hour))

	enrolls := logstore.Select[event.TwoSVEnrolled](w.log)
	if len(enrolls) == 0 {
		t.Fatal("no 2SV lockouts")
	}
	for _, e := range enrolls {
		if got := geo.PhoneCountry(e.Phone); got != geo.IvoryCoast {
			t.Fatalf("2SV phone from %s, want CI", got)
		}
	}
	if c.PhoneLocks != len(enrolls) {
		t.Fatalf("counter %d != events %d", c.PhoneLocks, len(enrolls))
	}
}

func TestScamAndPhishSendsFromAccount(t *testing.T) {
	w := newWorld(t, 9, 500)
	cfg := DefaultCrewConfig("crew", geo.Nigeria, LangEN)
	cfg.ContactPhishing = false
	cfg.Members = 20
	c := newCrew(w, cfg)
	c.Start(w.clock.Now().Add(30 * 24 * time.Hour))
	ids := make([]identity.AccountID, 400)
	for i := range ids {
		ids[i] = identity.AccountID(i + 1)
	}
	feed(w, c, ids...)
	w.clock.RunUntil(w.clock.Now().Add(30 * 24 * time.Hour))

	scams, phish := 0, 0
	for _, m := range logstore.Select[event.MessageSent](w.log) {
		if m.Actor != event.ActorHijacker {
			continue
		}
		switch m.Class {
		case event.ClassScam:
			scams++
		case event.ClassPhish:
			phish++
		}
	}
	if scams == 0 || phish == 0 {
		t.Fatalf("scams=%d phish=%d, want both", scams, phish)
	}
	// The scam/phish split leans scam (§5.3: 65%/35% of messages from
	// hijacked accounts).
	if scams <= phish {
		t.Fatalf("scams (%d) should outnumber phish (%d)", scams, phish)
	}
}

func TestDuplicateCredentialsIgnored(t *testing.T) {
	w := newWorld(t, 10, 20)
	c := newCrew(w, DefaultCrewConfig("crew", geo.China, LangZH))
	feed(w, c, 1)
	feed(w, c, 1)
	if c.QueueLen() != 1 {
		t.Fatalf("queue = %d, want 1 (dedupe)", c.QueueLen())
	}
}

func TestStalePasswordFailsWithRetry(t *testing.T) {
	w := newWorld(t, 11, 20)
	cfg := DefaultCrewConfig("crew", geo.China, LangZH)
	c := newCrew(w, cfg)
	c.Start(w.clock.Now().Add(2 * 24 * time.Hour))
	a := w.dir.Get(1)
	c.CredentialCaptured(phishkit.Credential{
		Account: 1, Addr: a.Addr, Password: a.Password + "-stale", At: w.clock.Now(),
	})
	w.clock.RunUntil(w.clock.Now().Add(2 * 24 * time.Hour))

	logins := logstore.Select[event.Login](w.log)
	if len(logins) != 2 {
		t.Fatalf("logins = %d, want 2 (original + trivial variant retry)", len(logins))
	}
	for _, l := range logins {
		if l.Outcome != event.LoginWrongPassword {
			t.Fatalf("outcome = %s", l.Outcome)
		}
	}
	if c.LoggedIn != 0 {
		t.Fatal("stale credential logged in")
	}
}

func TestLanguageLexiconSkew(t *testing.T) {
	r := randx.New(12)
	zh := lexiconFor(LangZH)
	es := lexiconFor(LangES)
	zhHits, esHits := 0, 0
	for i := 0; i < 20000; i++ {
		if zh.Choose(r) == "账单" {
			zhHits++
		}
		if es.Choose(r) == "transferencia" {
			esHits++
		}
	}
	if zhHits < 500 {
		t.Fatalf("zh lexicon rarely picks 账单: %d", zhHits)
	}
	if esHits < 1500 {
		t.Fatalf("es lexicon rarely picks transferencia: %d", esHits)
	}
	// English crews should almost never search Chinese terms.
	en := lexiconFor(LangEN)
	enZh := 0
	for i := 0; i < 20000; i++ {
		if en.Choose(r) == "账单" {
			enZh++
		}
	}
	if enZh > 100 {
		t.Fatalf("en lexicon picks 账单 too often: %d", enZh)
	}
}

func TestChunkContacts(t *testing.T) {
	mkContacts := func(n int) []identity.Address {
		cs := make([]identity.Address, n)
		for i := range cs {
			cs[i] = identity.Address(fmt.Sprintf("c%03d@x", i))
		}
		return cs
	}
	cases := []struct {
		name       string
		contacts   int
		n          int
		wantBatch  int // exact batch count; -1 = only invariants
		wantNilOut bool
	}{
		{name: "even split", contacts: 36, n: 3, wantBatch: 3},
		{name: "nil contacts", contacts: 0, n: 3, wantNilOut: true},
		{name: "zero n clamps to one batch", contacts: 10, n: 0, wantBatch: 1},
		{name: "negative n clamps to one batch", contacts: 10, n: -4, wantBatch: 1},
		{name: "n larger than contacts", contacts: 5, n: 100, wantBatch: 1},
		{name: "small list stays whole", contacts: 10, n: 3, wantBatch: 1},
		{name: "trailing remainder merges", contacts: 40, n: 3, wantBatch: -1},
		{name: "large list many chunks", contacts: 500, n: 8, wantBatch: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := mkContacts(tc.contacts)
			got := ChunkContacts(cs, tc.n)
			if tc.wantNilOut {
				if got != nil {
					t.Fatalf("want nil, got %d batches", len(got))
				}
				return
			}
			if tc.wantBatch >= 0 && len(got) != tc.wantBatch {
				t.Fatalf("got %d batches, want %d", len(got), tc.wantBatch)
			}
			// Invariants for every case: nothing lost, nothing
			// duplicated, order preserved, and no undersized batch
			// unless the whole list is small.
			var flat []identity.Address
			for _, b := range got {
				if len(b) == 0 {
					t.Fatal("empty batch emitted")
				}
				if len(got) > 1 && len(b) < 12 {
					t.Fatalf("batch of %d recipients below the high-recipient floor", len(b))
				}
				flat = append(flat, b...)
			}
			if len(flat) != tc.contacts {
				t.Fatalf("chunking changed contact count: %d, want %d", len(flat), tc.contacts)
			}
			for i, addr := range flat {
				if addr != cs[i] {
					t.Fatalf("order broken at %d: %s != %s", i, addr, cs[i])
				}
			}
		})
	}
}

type listenerFunc func(identity.AccountID, time.Time, bool, bool)

func (f listenerFunc) HijackEnded(crew string, a identity.AccountID, t time.Time, l, e bool) {
	f(a, t, l, e)
}

func TestDeviceSpoofingPresentsOwnerFingerprint(t *testing.T) {
	w := newWorld(t, 12, 30)
	cfg := DefaultCrewConfig("spoof-crew", geo.China, LangZH)
	cfg.DeviceSpoofing = true
	cfg.ContactPhishing = false
	c := newCrew(w, cfg)
	c.Start(w.clock.Now().Add(2 * 24 * time.Hour))
	feed(w, c, 1, 2, 3)
	w.clock.RunUntil(w.clock.Now().Add(2 * 24 * time.Hour))

	for _, l := range logstore.Select[event.Login](w.log) {
		if l.Actor != event.ActorHijacker {
			continue
		}
		if want := identity.DeviceFingerprint(l.Account); l.DeviceID != want {
			t.Fatalf("spoofed device = %q, want owner fingerprint %q", l.DeviceID, want)
		}
	}
}
