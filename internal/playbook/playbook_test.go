package playbook_test

import (
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
	"manualhijack/internal/playbook"
	"manualhijack/internal/randx"
	"manualhijack/internal/recovery"
	"manualhijack/internal/simtime"
)

// harness is a small world with a permissive login defense, so each
// archetype's behavior — not the defense — is what the signature tests
// observe.
type harness struct {
	clock *simtime.Clock
	log   *logstore.Store
	dir   *identity.Directory
	plan  *geo.IPPlan
	env   playbook.Env
}

func newHarness(t *testing.T, seed int64, accounts int) *harness {
	t.Helper()
	// Monday 00:00 UTC keeps work-hour math predictable.
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
	authSvc := auth.NewService(dir, clock, log, nil, ch, auth.Config{RiskEnabled: false})
	inf := phishkit.NewInfrastructure(clock, log, dir, plan, rng)
	return &harness{
		clock: clock, log: log, dir: dir, plan: plan,
		env: playbook.Env{
			Clock: clock, Log: log, Rng: rng, Dir: dir,
			Mail: mailSvc, Auth: authSvc, Inf: inf, Plan: plan,
		},
	}
}

// actor builds and starts one archetype instance with the given horizon.
func (h *harness) actor(t *testing.T, archetype string, days int) playbook.Actor {
	t.Helper()
	a, err := playbook.New(archetype, "", h.env)
	if err != nil {
		t.Fatal(err)
	}
	if a.Archetype() != archetype {
		t.Fatalf("Archetype() = %q, want %q", a.Archetype(), archetype)
	}
	a.Start(h.clock.Now().Add(time.Duration(days) * 24 * time.Hour))
	return a
}

func (h *harness) feed(a playbook.Actor, ids ...identity.AccountID) {
	for _, id := range ids {
		acct := h.dir.Get(id)
		a.CredentialCaptured(phishkit.Credential{
			Account: id, Addr: acct.Addr, Password: acct.Password, At: h.clock.Now(),
		})
	}
}

func (h *harness) run(days int) {
	h.clock.RunUntil(h.clock.Now().Add(time.Duration(days) * 24 * time.Hour))
}

// scan walks every logged event.
func (h *harness) scan(fn func(event.Event)) { h.log.Scan(fn) }

// logins returns the archetype-tagged login records, in log order.
func (h *harness) logins(archetype string) []event.Login {
	var out []event.Login
	h.scan(func(e event.Event) {
		if l, ok := e.(event.Login); ok && l.Archetype == archetype {
			out = append(out, l)
		}
	})
	return out
}

// sessions returns the successful-login session IDs for an archetype.
func (h *harness) sessions(archetype string) map[event.SessionID]bool {
	out := map[event.SessionID]bool{}
	for _, l := range h.logins(archetype) {
		if l.Outcome == event.LoginSuccess {
			out[l.Session] = true
		}
	}
	return out
}

// sends returns hijacker-sent messages within the given sessions.
func (h *harness) sends(sess map[event.SessionID]bool) []event.MessageSent {
	var out []event.MessageSent
	h.scan(func(e event.Event) {
		if m, ok := e.(event.MessageSent); ok && m.Actor == event.ActorHijacker && sess[m.Session] {
			out = append(out, m)
		}
	})
	return out
}

func (h *harness) hijackSpan(t *testing.T, archetype string) (started event.HijackStarted, ended event.HijackEnded) {
	t.Helper()
	var haveS, haveE bool
	h.scan(func(e event.Event) {
		switch ev := e.(type) {
		case event.HijackStarted:
			if ev.Archetype == archetype && !haveS {
				started, haveS = ev, true
			}
		case event.HijackEnded:
			if ev.Archetype == archetype && !haveE {
				ended, haveE = ev, true
			}
		}
	})
	if !haveS || !haveE {
		t.Fatalf("%s: hijack lifecycle incomplete (started=%v ended=%v)", archetype, haveS, haveE)
	}
	return started, ended
}

func TestRegistryHasAllPlaybooks(t *testing.T) {
	want := []string{
		"datathief", "hopper", "impaas", "lateralphisher", "lowslow",
		"manual", "ransomer", "smashgrab", "sleeper", "spamcannon", "stuffer",
	}
	names := map[string]bool{}
	for _, n := range playbook.Names() {
		names[n] = true
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("archetype %q not registered", n)
		}
	}
	if len(playbook.Names()) < 10 {
		t.Fatalf("only %d playbooks registered, want >= 10", len(playbook.Names()))
	}
}

func TestParseRoster(t *testing.T) {
	got, err := playbook.ParseRoster(" smashgrab:3, stuffer:2 ,datathief ")
	if err != nil {
		t.Fatal(err)
	}
	want := []playbook.RosterEntry{
		{Archetype: "smashgrab", Count: 3},
		{Archetype: "stuffer", Count: 2},
		{Archetype: "datathief", Count: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := playbook.ParseRoster("nosucharchetype:1"); err == nil {
		t.Error("unknown archetype accepted")
	}
	if _, err := playbook.ParseRoster("smashgrab:0"); err == nil {
		t.Error("zero count accepted")
	}
	if entries, err := playbook.ParseRoster(""); err != nil || entries != nil {
		t.Errorf("empty spec: got %v, %v", entries, err)
	}
}

func TestUnknownArchetypeErrors(t *testing.T) {
	h := newHarness(t, 1, 10)
	if _, err := playbook.New("nosuch", "", h.env); err == nil {
		t.Fatal("unknown archetype did not error")
	}
}

// Signature: the manual crew rides the playbook registry unchanged —
// office-hours queue work with manual-tagged logins and lifecycle events.
func TestManualSignature(t *testing.T) {
	h := newHarness(t, 5, 60)
	a := h.actor(t, "manual", 4)
	h.feed(a, 1, 2, 3)
	h.run(4)

	logins := h.logins("manual")
	if len(logins) == 0 {
		t.Fatal("no manual-tagged logins")
	}
	for _, l := range logins {
		if l.Time.Hour() < 8 || l.Time.Hour() >= 17 {
			t.Errorf("manual login at %v — outside office hours", l.Time)
		}
	}
	if st, _ := h.hijackSpan(t, "manual"); st.Archetype != "manual" {
		t.Errorf("HijackStarted archetype = %q", st.Archetype)
	}
}

// A manual crew built through the registry gets the recovery service
// from Env like a roster crew, so stale credentials draw §6.3 impostor
// claims at the crew's recovery-fraud rate.
func TestManualRegistryCrewFilesFraudClaims(t *testing.T) {
	h := newHarness(t, 21, 60)
	h.env.Recovery = recovery.NewService(recovery.DefaultConfig(), h.clock, h.log,
		h.env.Rng, h.dir, h.env.Auth, h.env.Mail)
	a := h.actor(t, "manual", 6)
	for id := identity.AccountID(1); id <= 20; id++ {
		acct := h.dir.Get(id)
		a.CredentialCaptured(phishkit.Credential{
			Account: id, Addr: acct.Addr, Password: acct.Password + "-stale", At: h.clock.Now(),
		})
	}
	h.run(6)

	claims := 0
	h.scan(func(e event.Event) {
		if c, ok := e.(event.ClaimFiled); ok && c.Trigger == "fraud" && c.Actor == event.ActorHijacker {
			claims++
		}
	})
	if claims == 0 {
		t.Fatal("registry-built manual crew filed no fraud claims for 20 stale credentials")
	}
	t.Logf("%d fraud claims", claims)
}

// Signature: contact exfil plus a 80–200-slot scam burst within hours of
// entry, owner locked out, account burned inside a day.
func TestSmashGrabSignature(t *testing.T) {
	h := newHarness(t, 7, 60)
	a := h.actor(t, "smashgrab", 3)
	h.feed(a, 1)
	h.run(3)

	started, ended := h.hijackSpan(t, "smashgrab")
	if !ended.LockedOut {
		t.Error("smashgrab did not lock the owner out")
	}
	if d := ended.Time.Sub(started.Time); d <= 0 || d > 24*time.Hour {
		t.Errorf("account burned after %v, want within 24h", d)
	}
	slots := 0
	var firstSend time.Time
	for _, m := range h.sends(h.sessions("smashgrab")) {
		if m.Class != event.ClassScam {
			t.Errorf("smashgrab sent %v, want scam class only", m.Class)
		}
		if firstSend.IsZero() {
			firstSend = m.Time
		}
		slots += len(m.Recipients)
	}
	if slots < 80 {
		t.Errorf("scam blast used %d recipient slots, want >= 80", slots)
	}
	if gap := firstSend.Sub(started.Time); gap > 3*time.Hour {
		t.Errorf("first blast %v after entry, want within 3h", gap)
	}
	locked := false
	h.scan(func(e event.Event) {
		if p, ok := e.(event.PasswordChanged); ok && p.Actor == event.ActorHijacker && p.Account == started.Account {
			locked = true
		}
	})
	if !locked {
		t.Error("no hijacker password change logged")
	}
}

// Signature: first touch days after capture, small customized waves, an
// activity span of at least 4 days from capture, and no lockout.
func TestLowSlowSignature(t *testing.T) {
	h := newHarness(t, 11, 60)
	a := h.actor(t, "lowslow", 12)
	captureAt := h.clock.Now()
	h.feed(a, 1)
	h.run(12)

	logins := h.logins("lowslow")
	if len(logins) == 0 {
		t.Fatal("no lowslow logins")
	}
	if wait := logins[0].Time.Sub(captureAt); wait < 2*24*time.Hour {
		t.Errorf("first touch %v after capture, want >= 2 days", wait)
	}
	sends := h.sends(h.sessions("lowslow"))
	if len(sends) < 3 {
		t.Fatalf("lowslow sent %d waves, want several small ones", len(sends))
	}
	var last time.Time
	for _, m := range sends {
		if len(m.Recipients) > 8 {
			t.Errorf("wave of %d recipients — too loud for low & slow", len(m.Recipients))
		}
		if !m.Customized {
			t.Error("lowslow send not customized")
		}
		last = m.Time
	}
	if span := last.Sub(captureAt); span < 4*24*time.Hour {
		t.Errorf("activity span %v, want >= 4 days", span)
	}
	_, ended := h.hijackSpan(t, "lowslow")
	if ended.LockedOut {
		t.Error("lowslow locked the owner out — the account should stay open")
	}
}

// Signature: one account entered from at least three countries.
func TestHopperSignature(t *testing.T) {
	h := newHarness(t, 13, 60)
	a := h.actor(t, "hopper", 10)
	h.feed(a, 1)
	h.run(10)

	countries := map[geo.Country]bool{}
	for _, l := range h.logins("hopper") {
		if l.Outcome == event.LoginSuccess {
			countries[h.plan.Locate(l.IP)] = true
		}
	}
	if len(countries) < 3 {
		t.Fatalf("hopper crossed %d countries (%v), want >= 3", len(countries), countries)
	}
}

// Signature: download-then-close — contact exfil and folder sweeps with
// zero outbound mail, no lockout, done within the hour.
func TestDataThiefSignature(t *testing.T) {
	h := newHarness(t, 17, 60)
	a := h.actor(t, "datathief", 2)
	h.feed(a, 1, 2)
	h.run(2)

	sess := h.sessions("datathief")
	if len(sess) == 0 {
		t.Fatal("no datathief entries")
	}
	if sends := h.sends(sess); len(sends) != 0 {
		t.Fatalf("datathief sent %d messages, want zero spam ever", len(sends))
	}
	var exfil, folders int
	h.scan(func(e event.Event) {
		switch ev := e.(type) {
		case event.ContactsViewed:
			if sess[ev.Session] {
				exfil++
			}
		case event.FolderOpened:
			if sess[ev.Session] {
				folders++
			}
		}
	})
	if exfil == 0 || folders == 0 {
		t.Errorf("download phase incomplete: %d contact views, %d folder opens", exfil, folders)
	}
	started, ended := h.hijackSpan(t, "datathief")
	if ended.LockedOut {
		t.Error("datathief locked the owner out")
	}
	if d := ended.Time.Sub(started.Time); d > time.Hour {
		t.Errorf("thief lingered %v, want under an hour", d)
	}
}

// Signature: one IP pushed through 3+ distinct accounts within minutes —
// the anti-discipline shape.
func TestStufferSignature(t *testing.T) {
	h := newHarness(t, 19, 60)
	a := h.actor(t, "stuffer", 1)
	h.feed(a, 1, 2, 3, 4, 5)
	h.run(1)

	type use struct {
		accounts map[identity.AccountID]bool
		first    time.Time
		last     time.Time
	}
	byIP := map[string]*use{}
	for _, l := range h.logins("stuffer") {
		key := l.IP.String()
		u := byIP[key]
		if u == nil {
			u = &use{accounts: map[identity.AccountID]bool{}, first: l.Time}
			byIP[key] = u
		}
		u.accounts[l.Account] = true
		u.last = l.Time
	}
	burst := false
	for _, u := range byIP {
		if len(u.accounts) >= 3 && u.last.Sub(u.first) <= 30*time.Minute {
			burst = true
		}
	}
	if !burst {
		t.Fatalf("no single-IP burst of >= 3 accounts within 30 minutes (IPs: %d)", len(byIP))
	}
	if sends := h.sends(h.sessions("stuffer")); len(sends) != 0 {
		t.Errorf("stuffer sent %d messages, want validation only", len(sends))
	}
}

// Signature: bulk-class spam at maximum rate immediately after entry.
func TestSpamCannonSignature(t *testing.T) {
	h := newHarness(t, 23, 60)
	a := h.actor(t, "spamcannon", 1)
	h.feed(a, 1)
	h.run(1)

	logins := h.logins("spamcannon")
	if len(logins) == 0 {
		t.Fatal("no spamcannon entries")
	}
	sends := h.sends(h.sessions("spamcannon"))
	if len(sends) == 0 {
		t.Fatal("cannon fired nothing")
	}
	entry := logins[0].Time
	for _, m := range sends {
		if m.Class != event.ClassSpamBulk {
			t.Errorf("sent %v, want bulk spam class", m.Class)
		}
		if gap := m.Time.Sub(entry); gap > time.Hour {
			t.Errorf("send %v after entry, want within the hour", gap)
		}
	}
}

// Signature: a quiet validation entry, then a return at least 7 days
// later on the same account.
func TestSleeperSignature(t *testing.T) {
	h := newHarness(t, 29, 60)
	a := h.actor(t, "sleeper", 12)
	h.feed(a, 1)
	h.run(12)

	var ok []event.Login
	for _, l := range h.logins("sleeper") {
		if l.Outcome == event.LoginSuccess {
			ok = append(ok, l)
		}
	}
	if len(ok) < 2 {
		t.Fatalf("sleeper logged in %d times, want validate + return", len(ok))
	}
	if gap := ok[len(ok)-1].Time.Sub(ok[0].Time); gap < 7*24*time.Hour {
		t.Errorf("return after %v, want >= 7 days of silence", gap)
	}
}

// Signature: the owner is locked out within minutes of entry and the
// extortion note goes out customized to a handful of contacts.
func TestRansomerSignature(t *testing.T) {
	h := newHarness(t, 31, 60)
	a := h.actor(t, "ransomer", 1)
	h.feed(a, 1)
	h.run(1)

	started, ended := h.hijackSpan(t, "ransomer")
	if !ended.LockedOut {
		t.Error("ransomer did not seize the account")
	}
	var seizedAt time.Time
	h.scan(func(e event.Event) {
		if p, ok := e.(event.PasswordChanged); ok && p.Actor == event.ActorHijacker && p.Account == started.Account && seizedAt.IsZero() {
			seizedAt = p.Time
		}
	})
	if seizedAt.IsZero() {
		t.Fatal("no hijacker password change")
	}
	if gap := seizedAt.Sub(started.Time); gap > 15*time.Minute {
		t.Errorf("seizure %v after entry, want within 15 minutes", gap)
	}
	for _, m := range h.sends(h.sessions("ransomer")) {
		if !m.Customized || m.Class != event.ClassScam {
			t.Errorf("ransom note customized=%v class=%v, want customized scam", m.Customized, m.Class)
		}
		if len(m.Recipients) > 5 {
			t.Errorf("ransom note to %d recipients, want a handful", len(m.Recipients))
		}
	}
}

// Signature: targeted phishing-class mail carrying a live page from the
// hijacked account to its own contacts — and the page's captures feed
// the same actor, so the compromise can walk the contact graph.
func TestLateralPhisherSignature(t *testing.T) {
	h := newHarness(t, 37, 120)
	a := h.actor(t, "lateralphisher", 10)
	h.feed(a, 1, 2, 3, 4, 5, 6)
	h.run(10)

	sends := h.sends(h.sessions("lateralphisher"))
	if len(sends) == 0 {
		t.Fatal("no lateral sends")
	}
	for _, m := range sends {
		if m.Class != event.ClassPhish {
			t.Errorf("sent %v, want phish class", m.Class)
		}
		if m.PageID == 0 {
			t.Error("phish mail without a live page")
		}
		page := h.env.Inf.Page(m.PageID)
		if page == nil || !page.Targeted {
			t.Errorf("page %d not a targeted campaign page", m.PageID)
		}
	}
	// The campaign sink is the actor itself: captures from the page land
	// back in its own queue (the lateral chain).
	captured := 0
	h.scan(func(e event.Event) {
		if c, ok := e.(event.CredentialPhished); ok && !c.Decoy {
			if p := h.env.Inf.Page(c.Page); p != nil && p.Targeted {
				captured++
			}
		}
	})
	if captured == 0 {
		t.Error("no lateral captures from the targeted pages (seed chosen to convert)")
	}
}

// Signature: every login replays the victim's own device fingerprint
// from an IP in the victim's home country — device novelty and
// geo-velocity both blind.
func TestIMPaaSSignature(t *testing.T) {
	h := newHarness(t, 41, 60)
	a := h.actor(t, "impaas", 4)
	h.feed(a, 1, 2)
	h.run(4)

	logins := h.logins("impaas")
	if len(logins) == 0 {
		t.Fatal("no impaas logins")
	}
	for _, l := range logins {
		if want := identity.DeviceFingerprint(l.Account); l.DeviceID != want {
			t.Errorf("account %d: device %q, want the victim's own fingerprint %q", l.Account, l.DeviceID, want)
		}
		if home := h.dir.Get(l.Account).HomeCountry; h.plan.Locate(l.IP) != home {
			t.Errorf("account %d: login from %v, want home country %v", l.Account, h.plan.Locate(l.IP), home)
		}
	}
}
