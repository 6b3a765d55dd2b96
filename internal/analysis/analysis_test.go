package analysis

import (
	"net/netip"
	"testing"
	"time"

	"manualhijack/internal/behavior"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
)

var t0 = time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC)

func at(min int) event.Base { return event.Base{Time: t0.Add(time.Duration(min) * time.Minute)} }

func TestComputeTable2(t *testing.T) {
	s := logstore.New()
	// 35 mail lures, 15 bank lures reported; pages 10 mail, 20 bank.
	for i := 0; i < 35; i++ {
		s.Append(event.LureSent{Base: at(i), Target: event.TargetMail, Reported: true})
	}
	for i := 0; i < 15; i++ {
		s.Append(event.LureSent{Base: at(40 + i), Target: event.TargetBank, Reported: true})
	}
	for i := 0; i < 10; i++ {
		s.Append(event.PageCreated{Base: at(60 + i), Page: event.PageID(i + 1), Target: event.TargetMail})
	}
	for i := 0; i < 20; i++ {
		s.Append(event.PageCreated{Base: at(80 + i), Page: event.PageID(100 + i), Target: event.TargetBank})
	}
	for i := 0; i < 10; i++ {
		s.Append(event.PageDetected{Base: at(120 + i), Page: event.PageID(i + 1)})
	}
	for i := 0; i < 20; i++ {
		s.Append(event.PageDetected{Base: at(140 + i), Page: event.PageID(100 + i)})
	}
	t2 := Fold(s, NewPhishSampleBuilder()).Table2(1000)
	if t2.EmailShares[event.TargetMail] != 0.70 || t2.EmailShares[event.TargetBank] != 0.30 {
		t.Fatalf("email shares = %v", t2.EmailShares)
	}
	if t2.PageShares[event.TargetBank] <= t2.PageShares[event.TargetMail] {
		t.Fatalf("page shares = %v", t2.PageShares)
	}
}

func TestURLShare(t *testing.T) {
	s := logstore.New()
	for i := 0; i < 62; i++ {
		s.Append(event.LureSent{Base: at(i), HasURL: true, Reported: true})
	}
	for i := 0; i < 38; i++ {
		s.Append(event.LureSent{Base: at(100 + i), HasURL: false, Reported: true})
	}
	if got := Fold(s, NewPhishSampleBuilder()).URLShare(1000); got != 0.62 {
		t.Fatalf("url share = %v", got)
	}
}

// formsPage seeds one Forms page with hits and a takedown.
func formsPage(s *logstore.Store, id event.PageID, startMin, gets, posts int, victimTLD string) {
	s.Append(event.PageCreated{Base: at(startMin), Page: id, OnForms: true, Target: event.TargetMail})
	for i := 0; i < gets; i++ {
		s.Append(event.PageHit{Base: at(startMin + 1 + i), Page: id, Method: "GET"})
	}
	for i := 0; i < posts; i++ {
		s.Append(event.PageHit{
			Base: at(startMin + 1 + gets + i), Page: id, Method: "POST",
			Victim: identity.Address("v@x." + victimTLD),
		})
	}
	s.Append(event.PageTakedown{Base: at(startMin + gets + posts + 10), Page: id})
}

func TestComputeFigure4And5(t *testing.T) {
	s := logstore.New()
	formsPage(s, 1, 0, 40, 10, "edu")
	formsPage(s, 2, 200, 50, 5, "com")
	f4 := Fold(s, NewFigure4Builder()).Figure4(100)
	if f4.N != 15 {
		t.Fatalf("submissions = %d", f4.N)
	}
	if f4.EduShare < 0.6 || f4.EduShare > 0.7 {
		t.Fatalf("edu share = %v", f4.EduShare)
	}
	f5 := Fold(s, NewFigure5Builder()).Figure5(100, 10)
	if len(f5.PerPage) != 2 {
		t.Fatalf("pages = %d", len(f5.PerPage))
	}
	if f5.Max != 0.25 || f5.Min != 0.1 {
		t.Fatalf("f5 = %+v", f5)
	}
}

func TestComputeFigure3BlankShare(t *testing.T) {
	s := logstore.New()
	s.Append(event.PageCreated{Base: at(0), Page: 1, OnForms: true})
	for i := 0; i < 99; i++ {
		s.Append(event.PageHit{Base: at(1 + i), Page: 1, Method: "GET"})
	}
	s.Append(event.PageHit{Base: at(200), Page: 1, Method: "GET", Referrer: "mail.yahoo.com"})
	s.Append(event.PageTakedown{Base: at(300), Page: 1})
	f3 := Fold(s, NewFigure3Builder()).Figure3(100)
	if f3.BlankShare != 0.99 {
		t.Fatalf("blank share = %v", f3.BlankShare)
	}
	if len(f3.NonBlank) != 1 || f3.NonBlank[0].Key != "mail.yahoo.com" {
		t.Fatalf("non-blank = %v", f3.NonBlank)
	}
}

func TestComputeFigure7(t *testing.T) {
	s := logstore.New()
	// Three decoys: accessed at 10 min, accessed at 10 h, never accessed.
	s.Append(event.CredentialPhished{Base: at(0), Account: 1, Decoy: true})
	s.Append(event.CredentialPhished{Base: at(0), Account: 2, Decoy: true})
	s.Append(event.CredentialPhished{Base: at(0), Account: 3, Decoy: true})
	s.Append(event.Login{Base: at(10), Account: 1, Actor: event.ActorHijacker})
	s.Append(event.Login{Base: at(600), Account: 2, Actor: event.ActorHijacker})
	f7 := Fold(s, NewFigure7Builder()).Figure7()
	if f7.Submitted != 3 || f7.Accessed != 2 {
		t.Fatalf("f7 = %+v", f7)
	}
	if f7.Within30Min != 0.5 || f7.Within7Hours != 0.5 {
		t.Fatalf("f7 fractions = %+v", f7)
	}
}

func TestComputeFigure8(t *testing.T) {
	s := logstore.New()
	ip := netip.MustParseAddr("10.1.1.1")
	for i := 0; i < 8; i++ {
		ok := i < 6 // 6 of 8 attempts have the right password
		outcome := event.LoginWrongPassword
		if ok {
			outcome = event.LoginSuccess
		}
		s.Append(event.Login{
			Base: at(i), Account: identity.AccountID(i + 1), IP: ip,
			Actor: event.ActorHijacker, PasswordOK: ok, Outcome: outcome,
		})
	}
	f8 := Fold(s, NewFigure8Builder()).Figure8()
	if f8.IPDays != 1 || f8.MeanAttemptsPerIPDay != 8 || f8.MeanAccountsPerIPDay != 8 {
		t.Fatalf("f8 = %+v", f8)
	}
	if f8.PasswordOKShare != 0.75 {
		t.Fatalf("pwok = %v", f8.PasswordOKShare)
	}
}

func TestComputeTable3(t *testing.T) {
	s := logstore.New()
	for i, q := range []string{"wire transfer", "wire transfer", "bank", "password", "jpg", "账单"} {
		s.Append(event.Search{Base: at(i), Account: 1, Query: q, Actor: event.ActorHijacker})
	}
	// Owner searches must not count.
	s.Append(event.Search{Base: at(10), Account: 2, Query: "bank", Actor: event.ActorOwner})
	t3 := Fold(s, NewTable3Builder()).Table3()
	if t3.N != 6 {
		t.Fatalf("n = %d", t3.N)
	}
	if t3.Terms[0].Key != "wire transfer" {
		t.Fatalf("top term = %v", t3.Terms[0])
	}
	if !t3.HasChinese || t3.HasSpanish {
		t.Fatalf("language flags = %+v", t3)
	}
	if t3.FinanceShare <= t3.CredShare {
		t.Fatal("finance should dominate")
	}
}

func TestComputeAssessment(t *testing.T) {
	s := logstore.New()
	s.Append(event.HijackStarted{Base: at(0), Account: 1, Session: 1})
	s.Append(event.FolderOpened{Base: at(1), Account: 1, Folder: event.FolderStarred, Actor: event.ActorHijacker, Session: 1})
	s.Append(event.HijackAssessed{Base: at(3), Account: 1, Duration: 3 * time.Minute, Exploited: true})
	s.Append(event.HijackStarted{Base: at(10), Account: 2, Session: 2})
	s.Append(event.HijackAssessed{Base: at(13), Account: 2, Duration: time.Minute, Exploited: false})

	a := Fold(s, NewAssessmentBuilder()).Assessment(100)
	if a.Cases != 2 || a.ExploitedShare != 0.5 {
		t.Fatalf("assessment = %+v", a)
	}
	if a.MeanDuration != 2*time.Minute {
		t.Fatalf("mean = %v", a.MeanDuration)
	}
	if a.FolderOpenRates[event.FolderStarred] != 0.5 {
		t.Fatalf("starred rate = %v", a.FolderOpenRates)
	}
}

func TestComputeRetentionConditionals(t *testing.T) {
	s := logstore.New()
	// Account 1: lockout + mass delete. Account 2: lockout only.
	// Account 3: filter only, no lockout.
	s.Append(event.HijackStarted{Base: at(0), Account: 1})
	s.Append(event.HijackStarted{Base: at(1), Account: 2})
	s.Append(event.HijackStarted{Base: at(2), Account: 3})
	// A fourth, assessed-and-abandoned case must not enter the base.
	s.Append(event.HijackStarted{Base: at(2), Account: 4})
	for i, acct := range []identity.AccountID{1, 2, 3} {
		s.Append(event.HijackAssessed{Base: at(2 + i), Account: acct, Exploited: true})
	}
	s.Append(event.HijackAssessed{Base: at(5), Account: 4, Exploited: false})
	s.Append(event.PasswordChanged{Base: at(6), Account: 1, Actor: event.ActorHijacker})
	s.Append(event.MassDeletion{Base: at(7), Account: 1, Actor: event.ActorHijacker})
	s.Append(event.PasswordChanged{Base: at(8), Account: 2, Actor: event.ActorHijacker})
	s.Append(event.FilterCreated{Base: at(9), Account: 3, ForwardTo: "x@evil.test", Actor: event.ActorHijacker})
	// Owner actions must not count.
	s.Append(event.PasswordChanged{Base: at(10), Account: 3, Actor: event.ActorOwner})

	r := Fold(s, NewRetentionBuilder()).Retention(100)
	if r.Cases != 3 {
		t.Fatalf("cases = %d", r.Cases)
	}
	if r.LockoutShare != 2.0/3 {
		t.Fatalf("lockout = %v", r.LockoutShare)
	}
	if r.MassDeleteGivenLockout != 0.5 {
		t.Fatalf("massdelete|lockout = %v", r.MassDeleteGivenLockout)
	}
	if r.FilterShare != 1.0/3 {
		t.Fatalf("filter = %v", r.FilterShare)
	}
}

func TestComputeFigure9(t *testing.T) {
	s := logstore.New()
	flag := t0
	add := func(min int, lat time.Duration) {
		s.Append(event.ClaimResolved{
			Base: event.Base{Time: flag.Add(lat)}, Account: identity.AccountID(min),
			Success: true, FlaggedAt: flag,
		})
	}
	add(1, 30*time.Minute)
	add(2, 5*time.Hour)
	add(3, 20*time.Hour)
	add(4, 40*time.Hour)
	f9 := Fold(s, NewFigure9Builder()).Figure9(100)
	if f9.Recoveries != 4 {
		t.Fatalf("recoveries = %d", f9.Recoveries)
	}
	if f9.Within1Hour != 0.25 || f9.Within13Hour != 0.5 {
		t.Fatalf("f9 = %+v", f9)
	}
}

func TestComputeFigure10(t *testing.T) {
	s := logstore.New()
	for i := 0; i < 10; i++ {
		s.Append(event.ClaimAttempt{Base: at(i), Method: event.MethodSMS, Success: i < 8})
	}
	for i := 0; i < 10; i++ {
		s.Append(event.ClaimAttempt{Base: at(20 + i), Method: event.MethodFallback, Success: i < 1})
	}
	f10 := Fold(s, NewFigure10Builder()).Figure10(t0, t0.Add(24*time.Hour))
	if f10.Methods[event.MethodSMS].Rate != 0.8 {
		t.Fatalf("sms = %+v", f10.Methods[event.MethodSMS])
	}
	if f10.Methods[event.MethodFallback].Rate != 0.1 {
		t.Fatalf("fallback = %+v", f10.Methods[event.MethodFallback])
	}
}

func TestComputeFigures11And12(t *testing.T) {
	s := logstore.New()
	plan := geo.NewIPPlan(2)
	r := randx.New(1)
	for i := 0; i < 30; i++ {
		c := geo.China
		if i >= 20 {
			c = geo.SouthAfrica
		}
		s.Append(event.Login{
			Base: at(i), Account: identity.AccountID(i + 1),
			IP: plan.Addr(r, c), Actor: event.ActorHijacker, Outcome: event.LoginSuccess,
		})
	}
	f11 := Fold(s, NewFigure11Builder()).Figure11(plan, 100)
	if f11.Shares[0].Key != string(geo.China) || f11.Shares[0].Count != 20 {
		t.Fatalf("f11 = %+v", f11.Shares)
	}

	for i := 0; i < 5; i++ {
		s.Append(event.TwoSVEnrolled{
			Base: at(100 + i), Account: identity.AccountID(i + 1),
			Phone: geo.NewPhone(r, geo.IvoryCoast), Actor: event.ActorHijacker,
		})
	}
	f12 := Fold(s, NewFigure12Builder()).Figure12(100)
	if f12.Phones != 5 || f12.Shares[0].Key != string(geo.IvoryCoast) {
		t.Fatalf("f12 = %+v", f12)
	}
}

func TestEvaluateBehaviorDetectorReplay(t *testing.T) {
	s := logstore.New()
	// Hijacker session 1: playbook actions. Organic session 2: benign.
	s.Append(event.Login{Base: at(0), Account: 1, Session: 1, Actor: event.ActorHijacker, Outcome: event.LoginSuccess})
	s.Append(event.Search{Base: at(1), Account: 1, Session: 1, Query: "wire transfer", Actor: event.ActorHijacker})
	s.Append(event.ContactsViewed{Base: at(2), Account: 1, Session: 1, Actor: event.ActorHijacker})
	s.Append(event.MassDeletion{Base: at(3), Account: 1, Session: 1, Actor: event.ActorHijacker})
	s.Append(event.Login{Base: at(10), Account: 2, Session: 2, Actor: event.ActorOwner, Outcome: event.LoginSuccess})
	s.Append(event.Search{Base: at(11), Account: 2, Session: 2, Query: "lunch", Actor: event.ActorOwner})

	ev := Fold(s, NewBehaviorEvalBuilder(behavior.DefaultConfig())).DetectionEval()
	if ev.HijackSessions != 1 || ev.OrganicSessions != 1 {
		t.Fatalf("sessions = %+v", ev)
	}
	if ev.TruePositives != 1 || ev.FalsePositives != 0 {
		t.Fatalf("flags = %+v", ev)
	}
	if ev.Recall != 1 || ev.Precision != 1 {
		t.Fatalf("rates = %+v", ev)
	}
	if ev.MeanExposure != 3*time.Minute {
		t.Fatalf("exposure = %v", ev.MeanExposure)
	}
}

func TestSweepRiskThreshold(t *testing.T) {
	s := logstore.New()
	// Hijacker successes at scores 0.7, 0.5; owner logins at 0.1, 0.65.
	s.Append(event.Login{Base: at(0), Account: 1, RiskScore: 0.7, Actor: event.ActorHijacker, Outcome: event.LoginSuccess})
	s.Append(event.Login{Base: at(1), Account: 2, RiskScore: 0.5, Actor: event.ActorHijacker, Outcome: event.LoginSuccess})
	s.Append(event.Login{Base: at(2), Account: 3, RiskScore: 0.1, Actor: event.ActorOwner, Outcome: event.LoginSuccess})
	s.Append(event.Login{Base: at(3), Account: 4, RiskScore: 0.65, Actor: event.ActorOwner, Outcome: event.LoginSuccess})

	pts := Fold(s, NewRiskSweepBuilder([]float64{0.6})).Sweep()
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].HijackerCaught != 0.5 || pts[0].OwnerChallenged != 0.5 {
		t.Fatalf("pt = %+v", pts[0])
	}
}

func TestComputeBaseRates(t *testing.T) {
	s := logstore.New()
	for i := 0; i < 9; i++ {
		s.Append(event.HijackStarted{Base: at(i), Account: identity.AccountID(i + 1)})
	}
	end := t0.Add(24 * time.Hour)
	br := Fold(s, NewBaseRatesBuilder(t0)).BaseRates(t0, end, 1_000_000)
	if br.HijacksPerMillionActivePerDay != 9 {
		t.Fatalf("rate = %v", br.HijacksPerMillionActivePerDay)
	}
}

func TestComputeRecoveryChannels(t *testing.T) {
	s := logstore.New()
	s.Append(event.ClaimAttempt{Base: at(0), Method: event.MethodEmail, Success: false, Reason: "bounce"})
	s.Append(event.ClaimAttempt{Base: at(1), Method: event.MethodEmail, Success: true})
	s.Append(event.ClaimAttempt{Base: at(2), Method: event.MethodSMS, Success: true})
	ch := Fold(s, NewRecoveryChannelsBuilder()).RecoveryChannels(100, 7)
	if ch.RecycledShare != 0.07 {
		t.Fatalf("recycled = %v", ch.RecycledShare)
	}
	if ch.BounceShare != 0.5 || ch.EmailAttempts != 2 {
		t.Fatalf("bounce = %+v", ch)
	}
}

func TestQuietHours(t *testing.T) {
	if got := quietHours([]int{0, 0, 1, 0, 50, 60}); got != 4 {
		t.Fatalf("quiet = %d", got)
	}
	if got := quietHours([]int{0, 0}); got != 2 {
		t.Fatalf("all-quiet = %d", got)
	}
}
