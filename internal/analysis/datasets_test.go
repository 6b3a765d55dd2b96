package analysis

import (
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
)

// Each Table 1 dataset's source filter, checked on the builder that
// rebuilds the dataset as it folds.

func TestD1CurationFiltersUnreported(t *testing.T) {
	s := logstore.New()
	for i := 0; i < 50; i++ {
		s.Append(event.LureSent{Base: at(i), Victim: "a@b.edu", Target: event.TargetMail, Reported: i%5 == 0})
	}
	if got := Fold(s, NewPhishSampleBuilder()).Table2(100); got.EmailN != 10 {
		t.Fatalf("curated = %d, want 10 reported", got.EmailN)
	}
}

func TestD1Sampling(t *testing.T) {
	s := logstore.New()
	for i := 0; i < 500; i++ {
		s.Append(event.LureSent{Base: at(i), Reported: true})
	}
	if got := Fold(s, NewPhishSampleBuilder()).Table2(100); got.EmailN != 100 {
		t.Fatalf("sample = %d", got.EmailN)
	}
	lures := logstore.Select[event.LureSent](s)
	a, b := sampleN(1, lures, 100), sampleN(1, lures, 100)
	for i := range a {
		if a[i].When() != b[i].When() {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestD2JoinsDetections(t *testing.T) {
	s := logstore.New()
	s.Append(event.PageCreated{Base: at(0), Page: 1, Target: event.TargetBank})
	s.Append(event.PageCreated{Base: at(1), Page: 2, Target: event.TargetMail})
	s.Append(event.PageDetected{Base: at(10), Page: 2})
	got := Fold(s, NewPhishSampleBuilder()).Table2(10)
	if got.PageN != 1 || got.PageShares[event.TargetMail] != 1 {
		t.Fatalf("detected pages = %+v", got)
	}
}

func TestD3FormsPagesRequireTakedown(t *testing.T) {
	s := logstore.New()
	s.Append(event.PageCreated{Base: at(0), Page: 1, OnForms: true})
	s.Append(event.PageCreated{Base: at(0), Page: 2, OnForms: true})
	s.Append(event.PageCreated{Base: at(0), Page: 3, OnForms: false})
	s.Append(event.PageHit{Base: at(5), Page: 1, Method: "GET"})
	s.Append(event.PageHit{Base: at(6), Page: 1, Method: "POST", Victim: "x@y.edu"})
	s.Append(event.PageHit{Base: at(6), Page: 2, Method: "GET"})
	s.Append(event.PageHit{Base: at(6), Page: 3, Method: "GET"})
	s.Append(event.PageTakedown{Base: at(60), Page: 1})
	s.Append(event.PageTakedown{Base: at(61), Page: 3})

	got := Fold(s, NewFigure5Builder()).Figure5(10, 1)
	if len(got.PerPage) != 1 {
		t.Fatalf("forms pages = %d, want 1 (page 2 not taken down, page 3 not Forms)", len(got.PerPage))
	}
	if got.PerPage[0] != 1 {
		t.Fatalf("page 1 POST/GET = %v, want both of its hits counted", got.PerPage[0])
	}
}

func TestD4DecoyJoin(t *testing.T) {
	s := logstore.New()
	s.Append(event.CredentialPhished{Base: at(0), Account: 1, Decoy: true})
	s.Append(event.CredentialPhished{Base: at(1), Account: 2, Decoy: true})
	s.Append(event.CredentialPhished{Base: at(2), Account: 3, Decoy: false})
	// Owner login on account 1 must not count as access.
	s.Append(event.Login{Base: at(5), Account: 1, Actor: event.ActorOwner, Outcome: event.LoginSuccess})
	s.Append(event.Login{Base: at(30), Account: 1, Actor: event.ActorHijacker, Outcome: event.LoginSuccess})
	s.Append(event.Login{Base: at(40), Account: 1, Actor: event.ActorHijacker, Outcome: event.LoginSuccess})

	got := Fold(s, NewFigure7Builder()).Figure7()
	if got.Submitted != 2 {
		t.Fatalf("decoys = %d, want 2", got.Submitted)
	}
	if got.Accessed != 1 {
		t.Fatalf("accessed = %d, want 1 (unaccessed decoy marked accessed?)", got.Accessed)
	}
	if d := got.Delays.Mean(); d != 0.5 {
		t.Fatalf("access delay = %vh, want 0.5 (must be first hijacker login)", d)
	}
}

func TestD5AndD6FilterByActor(t *testing.T) {
	s := logstore.New()
	s.Append(event.Login{Base: at(0), Account: 1, Actor: event.ActorHijacker})
	s.Append(event.Login{Base: at(1), Account: 2, Actor: event.ActorOwner})
	s.Append(event.Search{Base: at(2), Account: 1, Query: "wire transfer", Actor: event.ActorHijacker})
	s.Append(event.Search{Base: at(3), Account: 2, Query: "lunch", Actor: event.ActorOwner})

	if got := Fold(s, NewFigure8Builder()).Figure8(); got.IPDays != 1 || got.MeanAttemptsPerIPDay != 1 {
		t.Fatalf("D5 = %+v", got)
	}
	if got := Fold(s, NewTable3Builder()).Table3(); got.N != 1 || got.Terms[0].Key != "wire transfer" {
		t.Fatalf("D6 = %+v", got)
	}
}

func TestD7DedupesAccounts(t *testing.T) {
	s := logstore.New()
	s.Append(event.HijackStarted{Base: at(0), Account: 1})
	s.Append(event.HijackStarted{Base: at(1), Account: 1})
	s.Append(event.HijackStarted{Base: at(2), Account: 2})
	s.Append(event.HijackAssessed{Base: at(3), Account: 1, Exploited: true})
	s.Append(event.HijackAssessed{Base: at(4), Account: 2, Exploited: true})
	if got := Fold(s, NewRetentionBuilder()).Retention(10); got.Cases != 2 {
		t.Fatalf("cases = %d, want 2", got.Cases)
	}
}

func TestD8FiltersBySetAndActor(t *testing.T) {
	s := logstore.New()
	s.Append(event.HijackStarted{Base: at(0), Account: 1})
	s.Append(event.MessageSent{Base: at(1), FromAcct: 1, Class: event.ClassScam, Actor: event.ActorHijacker})
	s.Append(event.MessageSent{Base: at(2), FromAcct: 1, Class: event.ClassPhish, Actor: event.ActorOwner})
	s.Append(event.MessageSent{Base: at(3), FromAcct: 9, Class: event.ClassPhish, Actor: event.ActorHijacker})
	got := Fold(s, NewExploitationBuilder()).Exploitation(10)
	if got.ScamShare != 1 || got.PhishShare != 0 {
		t.Fatalf("D8 = %+v, want only account 1's hijacker scam", got)
	}
}

func TestD9Cohorts(t *testing.T) {
	cfg := identity.DefaultConfig(t0)
	cfg.N = 300
	dir := identity.NewDirectory(randx.New(1), cfg)
	cutoff := t0.Add(time.Hour)
	// Accounts 1 and 2 are recent victims; account 3 was hijacked before
	// the 24-hour recruit window, so its contacts join neither cohort.
	s := logstore.New()
	s.Append(event.HijackStarted{Base: at(-48 * 60), Account: 3})
	s.Append(event.HijackStarted{Base: at(0), Account: 1})
	s.Append(event.HijackStarted{Base: at(1), Account: 2})

	// Both cohorts are taken whole (n above the population). After the
	// cutoff every contact of any victim is hijacked, so the contact cohort
	// must be all hits and the random cohort none.
	victim := map[identity.AccountID]bool{1: true, 2: true, 3: true}
	isContact, isRecentContact := map[identity.AccountID]bool{}, map[identity.AccountID]bool{}
	for _, v := range []identity.AccountID{1, 2, 3} {
		for _, addr := range dir.Get(v).Contacts {
			cid := dir.Lookup(addr)
			if cid == identity.None || victim[cid] {
				continue
			}
			if v != 3 {
				isRecentContact[cid] = true
			}
			if !isContact[cid] {
				isContact[cid] = true
				s.Append(event.HijackStarted{Base: at(120), Account: cid})
			}
		}
	}
	random := 0
	dir.All(func(a *identity.Account) {
		if !isContact[a.ID] && !victim[a.ID] && a.Active(cutoff) {
			random++
		}
	})

	cr := Fold(s, NewContactRiskBuilder()).ContactRisk(dir, cutoff, 24*time.Hour, 48*time.Hour, 1000)
	if cr.ContactCohort != len(isRecentContact) || cr.RandomCohort != random {
		t.Fatalf("cohorts = %d/%d, want %d/%d (victims or contacts in the wrong cohort)",
			cr.ContactCohort, cr.RandomCohort, len(isRecentContact), random)
	}
	if len(isRecentContact) == 0 || len(isContact) == len(isRecentContact) || random == 0 {
		t.Fatalf("fixture too small: %d recent contacts of %d, %d random",
			len(isRecentContact), len(isContact), random)
	}
	if cr.ContactRate != 1 || cr.RandomRate != 0 {
		t.Fatalf("rates = %v/%v, want 1/0 (random cohort overlaps contacts)", cr.ContactRate, cr.RandomRate)
	}
}

func TestD11OnlySuccesses(t *testing.T) {
	s := logstore.New()
	s.Append(event.ClaimResolved{Base: at(60), Account: 1, Success: true, FlaggedAt: t0})
	s.Append(event.ClaimResolved{Base: at(61), Account: 2, Success: false, FlaggedAt: t0})
	if got := Fold(s, NewFigure9Builder()).Figure9(10); got.Recoveries != 1 {
		t.Fatalf("D11 recoveries = %d, want 1", got.Recoveries)
	}
}

func TestD12WindowFilter(t *testing.T) {
	s := logstore.New()
	s.Append(event.ClaimAttempt{Base: at(0), Method: event.MethodSMS})
	s.Append(event.ClaimAttempt{Base: at(1), Method: event.MethodSMS, Actor: event.ActorHijacker})
	s.Append(event.ClaimAttempt{Base: at(60 * 24 * 40), Method: event.MethodEmail})
	got := Fold(s, NewFigure10Builder()).Figure10(t0, t0.Add(30*24*time.Hour))
	if len(got.Methods) != 1 || got.Methods[event.MethodSMS].Attempts != 1 {
		t.Fatalf("D12 = %+v", got)
	}
}

func TestD13OneIPPerCase(t *testing.T) {
	plan := geo.NewIPPlan(2)
	r := randx.New(1)
	ip1 := plan.Addr(r, geo.China)
	ip2 := plan.Addr(r, geo.SouthAfrica)
	s := logstore.New()
	s.Append(event.Login{Base: at(0), Account: 1, IP: ip1, Actor: event.ActorHijacker, Outcome: event.LoginSuccess})
	s.Append(event.Login{Base: at(1), Account: 1, IP: ip2, Actor: event.ActorHijacker, Outcome: event.LoginSuccess})
	s.Append(event.Login{Base: at(2), Account: 2, IP: ip2, Actor: event.ActorHijacker, Outcome: event.LoginWrongPassword})
	got := Fold(s, NewFigure11Builder()).Figure11(plan, 100)
	if got.Cases != 1 || len(got.Shares) != 1 || got.Shares[0].Key != string(geo.China) {
		t.Fatalf("D13 = %+v (one successful login per case)", got)
	}
}

func TestD14HijackerPhonesOnly(t *testing.T) {
	r := randx.New(1)
	s := logstore.New()
	s.Append(event.TwoSVEnrolled{Base: at(0), Account: 1, Phone: geo.NewPhone(r, geo.IvoryCoast), Actor: event.ActorHijacker})
	s.Append(event.TwoSVEnrolled{Base: at(1), Account: 2, Phone: geo.NewPhone(r, geo.US), Actor: event.ActorOwner})
	got := Fold(s, NewFigure12Builder()).Figure12(10)
	if got.Phones != 1 || got.Shares[0].Key != string(geo.IvoryCoast) {
		t.Fatalf("D14 = %+v", got)
	}
}
