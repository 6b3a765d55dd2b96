package playbook

import (
	"fmt"
	"net/netip"
	"time"

	"manualhijack/internal/challenge"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/mail"
	"manualhijack/internal/phishkit"
	"manualhijack/internal/randx"
	"manualhijack/internal/scam"
)

// This file implements the manual hijacker crew of the source paper (the
// "manual" archetype); see the package comment for the playbook it runs.

// Language selects the crew's search-term lexicon skew.
type Language string

// Crew languages.
const (
	LangEN Language = "en"
	LangFR Language = "fr"
	LangES Language = "es"
	LangZH Language = "zh"
)

// Tactics is the era-dependent retention-tactic profile (§5.4). The
// 2011→2012 evolution — mass deletion collapsing from 46% to 1.6% of
// lockouts once the provider made deleted content restorable, recovery-
// option changes dropping from 60% to 21% — is expressed by running worlds
// with different profiles.
type Tactics struct {
	// LockoutRate is the probability of changing the password (locking the
	// owner out) after exploitation.
	LockoutRate float64
	// MassDeleteGivenLockout is the probability of wiping mail/contacts
	// when locking out (2011: 0.46; 2012: 0.016).
	MassDeleteGivenLockout float64
	// RecoveryChangeRate is the probability of changing recovery options
	// (2011: 0.60; 2012: 0.21).
	RecoveryChangeRate float64
	// FilterRate installs a divert/forward filter (2012 sample: 0.15).
	FilterRate float64
	// ReplyToRate configures a doppelganger Reply-To (2012 sample: 0.26).
	ReplyToRate float64
	// TwoSVLockoutRate enrolls 2-step verification with a crew phone (the
	// short-lived 2012 tactic behind Figure 12; zero in other eras).
	TwoSVLockoutRate float64
}

// Tactics2011 is the October 2011 profile.
func Tactics2011() Tactics {
	return Tactics{
		LockoutRate:            0.55,
		MassDeleteGivenLockout: 0.46,
		RecoveryChangeRate:     0.60,
		FilterRate:             0.10,
		ReplyToRate:            0.20,
		TwoSVLockoutRate:       0,
	}
}

// Tactics2012 is the November 2012 profile.
func Tactics2012() Tactics {
	return Tactics{
		LockoutRate:            0.55,
		MassDeleteGivenLockout: 0.016,
		RecoveryChangeRate:     0.21,
		FilterRate:             0.15,
		ReplyToRate:            0.26,
		// The paper's phone dataset is 300 numbers against Google-scale
		// hijack volume; the simulated rate is boosted so Figure 12 has
		// statistical power at sim scale (see EXPERIMENTS.md).
		TwoSVLockoutRate: 0.45,
	}
}

// Tactics2014 is the January 2014 profile (the phone tactic abandoned).
func Tactics2014() Tactics {
	t := Tactics2012()
	t.TwoSVLockoutRate = 0
	return t
}

// ManualArchetype tags the manual-hijacking crews — the first entry of
// the playbook registry.
const ManualArchetype = "manual"

// Fixed crew traits, the same for every crew.
const (
	// phonePoolSize bounds the shared phone pool for the 2SV tactic.
	phonePoolSize = 30
	// recoveryFraudRate is the chance the crew responds to a stale
	// password — a credential that no longer logs in — by filing a
	// fraudulent account-recovery claim and trying to guess the knowledge
	// fallback (§6.3's impostor risk). Needs Env.Recovery.
	recoveryFraudRate = 0.25
	// workdayHours is the length of the crew's working day from
	// CrewConfig.WorkStartUTC; lunchAfterHours places the synchronized
	// one-hour lunch break inside it.
	workdayHours    = 9
	lunchAfterHours = 4
	// harvestLuresPerDay sizes the crew's recurring daily campaign against
	// its pool of harvested contacts. Crews keep re-phishing the contacts
	// of past victims on a daily schedule (§5.5: "the same daily time
	// table, defining when to process the newly gathered password lists"),
	// which sustains the contact-targeting loop past page takedowns.
	harvestLuresPerDay = 20
)

// CrewConfig describes one crew.
type CrewConfig struct {
	Name     string
	Country  geo.Country
	Language Language
	// Members is how many individuals work the queue in parallel.
	Members int
	// WorkStartUTC opens the crew's working day (workdayHours long, with
	// the lunch break lunchAfterHours in). Weekends are always off.
	WorkStartUTC int
	// IPPoolSize caps how many fresh addresses the crew's cloaking service
	// hands out per day (addresses are allocated lazily as the day's
	// earlier ones fill up).
	IPPoolSize int
	Tactics    Tactics
	// ContactPhishing launches phishing campaigns against the victim's
	// contacts during exploitation (drives the 36× contact-hijack rate).
	ContactPhishing bool
	// DeviceSpoofing mimics a common consumer browser fingerprint instead
	// of the crew's shared kit — §8.1 notes hijackers have "some
	// additional knowledge of using IP cloaking services and browser
	// plugins". It suppresses the login-risk analyzer's new-device signal.
	DeviceSpoofing bool
}

// DefaultCrewConfig returns a crew template for the given origin.
func DefaultCrewConfig(name string, country geo.Country, lang Language) CrewConfig {
	return CrewConfig{
		Name: name, Country: country, Language: lang,
		Members:         4,
		WorkStartUTC:    8,
		IPPoolSize:      40,
		Tactics:         Tactics2012(),
		ContactPhishing: true,
	}
}

// Crew is one manual hijacker group. The embedded Scaffold supplies its
// credential queue, disciplined IP pool, tagged logins, lifecycle logging
// and headline counters; Crew adds the office-hours schedule, value
// assessment, exploitation, retention, recovery fraud, and the daily
// harvested-contact campaigns.
type Crew struct {
	*Scaffold
	cfg   CrewConfig
	gen   *scam.Generator
	terms *randx.Weighted[string]

	exploitMark map[identity.AccountID]bool

	// harvest is the pool of contact addresses gathered from exploited
	// accounts, re-phished daily.
	harvest        []identity.Address
	harvestSet     map[identity.Address]bool
	lastHarvestDay time.Time

	// Counters exposed for calibration and tests, next to the scaffold's
	// Processed/LoggedIn/Exploited.
	Abandoned     int
	LockedOut     int
	PhoneLocks    int
	FraudAttempts int
	FraudWins     int
}

// NewCrew assembles a crew against the world wiring in env. The crew
// draws from its own "crew/"+name substream.
func NewCrew(cfg CrewConfig, env Env) *Crew {
	s := newScaffold(ManualArchetype, cfg.Name, cfg.Country, env)
	s.Rng = env.Rng.Fork("crew/" + cfg.Name)
	s.ipPoolSize = cfg.IPPoolSize
	phones := make([]geo.Phone, phonePoolSize)
	for i := range phones {
		phones[i] = geo.NewPhone(s.Rng, cfg.Country)
	}
	s.principal = challenge.Principal{Phones: phones, KnowledgeSkill: 0.2}
	return &Crew{
		Scaffold:    s,
		cfg:         cfg,
		gen:         scam.NewGenerator(s.Rng.Fork("scam")),
		terms:       lexiconFor(cfg.Language),
		exploitMark: make(map[identity.AccountID]bool),
		harvestSet:  make(map[identity.Address]bool),
	}
}

// newManual fields a crew of the default origin as the registry's
// "manual" archetype.
func newManual(name string, env Env) Actor {
	return NewCrew(DefaultCrewConfig(name, geo.IvoryCoast, LangEN), env)
}

// Start schedules the crew's work loop until end. Members poll the queue
// every few minutes during working hours, which — combined with the
// lunch break and weekends — produces the paper's response-time curve
// (Figure 7: 20% of decoys accessed within 30 minutes, 50% within 7 h).
func (c *Crew) Start(end time.Time) { c.StartTicks(7*time.Minute, end, c.tick) }

// working reports whether the crew is at its desks.
func (c *Crew) working(t time.Time) bool {
	switch t.Weekday() {
	case time.Saturday, time.Sunday:
		return false
	}
	h := t.Hour() - c.cfg.WorkStartUTC
	return h >= 0 && h < workdayHours && h != lunchAfterHours
}

// tick processes up to Members credentials and runs the daily
// harvested-contact campaign.
func (c *Crew) tick() {
	now := c.E.Clock.Now()
	if !c.working(now) {
		return
	}
	c.dailyHarvestCampaign(now)
	for i := 0; i < c.cfg.Members; i++ {
		cred, ip, ok := c.NextCred()
		if !ok {
			return // queue empty, or IP pool exhausted for today
		}
		c.process(cred, ip)
	}
}

// dailyHarvestCampaign re-phishes a sample of the harvested contact pool
// once per working day.
func (c *Crew) dailyHarvestCampaign(now time.Time) {
	if len(c.harvest) == 0 {
		return
	}
	day := dayOf(now)
	if c.lastHarvestDay.Equal(day) {
		return
	}
	c.lastHarvestDay = day
	c.ContactCampaign(randx.Sample(c.Rng, c.harvest, harvestLuresPerDay), harvestLuresPerDay)
}

// loginDevice is the fingerprint presented at login: the crew's shared
// kit, or — for device-spoofing crews — the victim's own usual
// fingerprint, defeating the new-device signal.
func (c *Crew) loginDevice(acct identity.AccountID) string {
	if c.cfg.DeviceSpoofing {
		return identity.DeviceFingerprint(acct)
	}
	return c.Device()
}

// process works one credential end to end from ip.
func (c *Crew) process(cred phishkit.Credential, ip netip.Addr) {
	c.Processed++
	device := c.loginDevice(cred.Account)
	res := c.Login(cred.Account, cred.Password, ip, device)
	if res.Outcome == event.LoginWrongPassword {
		// Retry with a trivial variant; stale passwords stay stale.
		res = c.Login(cred.Account, cred.Password+"1", ip, device)
	}
	if res.Outcome == event.LoginWrongPassword && c.E.Recovery != nil &&
		c.Rng.Bool(recoveryFraudRate) {
		// The phished password is stale; try the recovery route instead
		// (§6.3: would-be hijackers "may succeed by guessing the answer").
		acct := cred.Account
		c.E.Clock.After(c.Rng.DurationBetween(time.Hour, 8*time.Hour), func() {
			c.FraudAttempts++
			c.E.Recovery.FileFraudClaim(acct, func(newPassword string) {
				c.FraudWins++
				// The won account enters the normal work queue.
				c.queue = append(c.queue, phishkit.Credential{
					Account: acct, Addr: c.E.Dir.Get(acct).Addr,
					Password: newPassword, At: c.E.Clock.Now(),
				})
			})
		})
	}
	if res.Outcome != event.LoginSuccess {
		return
	}
	c.LoggedIn++
	start := c.E.Clock.Now()
	c.LogStart(cred.Account, res.Session)
	page := c.E.Inf.Page(cred.Page)
	c.assess(cred.Account, res.Session, start, page != nil && page.Targeted)
}

// assess runs the value-assessment phase: a few searches, significant
// folder opens, a contacts view — spread over an Exp(3 min) budget — then
// the exploit/abandon decision (§5.2).
func (c *Crew) assess(acct identity.AccountID, sess event.SessionID, start time.Time, fromTargeted bool) {
	budget := c.Rng.ExpDuration(3 * time.Minute)
	if budget < 20*time.Second {
		budget = 20 * time.Second
	}
	searches := 1 + c.Rng.Intn(4)
	step := budget / time.Duration(searches+3)

	state := &assessState{acct: acct, sess: sess, start: start, budget: budget, fromTargeted: fromTargeted}
	elapsed := time.Duration(0)
	for i := 0; i < searches; i++ {
		elapsed += step
		c.E.Clock.Schedule(start.Add(elapsed), func() {
			term := c.terms.Choose(c.Rng)
			c.E.Mail.Search(acct, term, sess, event.ActorHijacker)
			if isFinanceTerm(term) && c.E.Mail.Mailbox(acct).CountMatching(term) > 0 {
				state.financeHits++
			}
		})
	}
	// Significant folders, with the paper's observed open rates (fixed
	// iteration order: map ranging would consume randomness
	// nondeterministically).
	folderOdds := []struct {
		folder event.Folder
		p      float64
	}{
		{event.FolderStarred, 0.16},
		{event.FolderDrafts, 0.11},
		{event.FolderSent, 0.05},
		{event.FolderTrash, 0.008},
	}
	for _, fo := range folderOdds {
		if c.Rng.Bool(fo.p) {
			elapsed += step / 2
			folder := fo.folder
			c.E.Clock.Schedule(start.Add(elapsed), func() {
				c.E.Mail.OpenFolder(acct, folder, sess, event.ActorHijacker)
			})
		}
	}
	// Contact-list review to size the scam/phishing victim pool.
	elapsed += step
	c.E.Clock.Schedule(start.Add(elapsed), func() {
		state.contacts = c.Contacts(acct, sess)
	})
	// Decision point.
	c.E.Clock.Schedule(start.Add(budget), func() { c.decide(state) })
}

type assessState struct {
	acct        identity.AccountID
	sess        event.SessionID
	start       time.Time
	budget      time.Duration
	financeHits int
	contacts    []identity.Address
	// fromTargeted marks victims acquired through the crew's own
	// contact-targeted campaigns. Their contact lists largely coincide
	// with the pool the crew already holds (contact graphs are clustered),
	// so the crew only harvests fresh lists — and launches fresh contact
	// campaigns — for mass-campaign victims.
	fromTargeted bool
}

// decide closes the assessment and either exploits or abandons.
func (c *Crew) decide(st *assessState) {
	var pExploit float64
	switch {
	case st.financeHits > 0 && len(st.contacts) >= 5:
		pExploit = 0.90
	case st.financeHits > 0:
		pExploit = 0.70
	case len(st.contacts) >= 15:
		pExploit = 0.45
	default:
		pExploit = 0.05
	}
	exploited := c.Rng.Bool(pExploit) && len(st.contacts) > 0
	c.E.Log.Append(event.HijackAssessed{
		Base: event.Base{Time: c.E.Clock.Now()}, Account: st.acct,
		Crew: c.Name(), Duration: st.budget, Exploited: exploited,
		Archetype: ManualArchetype,
	})
	if !exploited {
		c.Abandoned++
		c.finish(st, false)
		return
	}
	c.Exploited++
	c.exploitMark[st.acct] = true
	c.exploit(st)
}

// exploit runs the 15–20 minute monetization phase (§5.3) followed by
// retention tactics (§5.4). Whatever the account is used for — scams or
// phishing blasts — the crew also phishes the victim's contact list from
// its own infrastructure to source the next victims.
func (c *Crew) exploit(st *assessState) {
	work := c.Rng.DurationBetween(15*time.Minute, 20*time.Minute)
	acct := c.E.Dir.Get(st.acct)

	pageID := c.phishContacts(st)
	if c.Rng.Bool(0.65) {
		c.sendScams(st, acct, work)
	} else {
		c.sendPhishing(st, acct, work, pageID)
	}
	c.E.Clock.Schedule(c.E.Clock.Now().Add(work), func() { c.retainAndFinish(st) })
}

// sendScams mails the victim's contacts pleas for money. 65% of victims
// see at most five messages, each with many recipients; ~6% of cases are
// customized messages to fewer than ten recipients.
func (c *Crew) sendScams(st *assessState, acct *identity.Account, work time.Duration) {
	customized := c.Rng.Bool(0.06)
	var batches [][]identity.Address
	if customized {
		n := 1 + c.Rng.Intn(9)
		if n > len(st.contacts) {
			n = len(st.contacts)
		}
		batches = [][]identity.Address{st.contacts[:n]}
	} else {
		msgs := 1 + c.Rng.Intn(5)
		if c.Rng.Bool(0.35) {
			// The heavier salvo (the other 35% of victims, §5.3): extra
			// rounds to the same contact chunks — the Mugged-in-City
			// scheme needs at least two rounds of mail anyway (§5.4).
			msgs = 6 + c.Rng.Intn(6)
		}
		batches = rounds(st.contacts, msgs)
	}
	c.spread(work, batches, func(batch []identity.Address) {
		msg := c.gen.Generate(c.gen.RandomScheme(), scam.Victim{
			Name: string(acct.Addr), Gender: acct.Gender, City: acct.City,
		}, customized)
		c.E.Mail.Send(mail.SendReq{
			FromAcct: st.acct, FromAddr: acct.Addr, Recipients: batch,
			Keywords: msg.Keywords(), Class: event.ClassScam,
			Customized: customized, Session: st.sess, Actor: event.ActorHijacker,
		})
	})
}

// sendPhishing blasts phishing mail from the hijacked account to its
// contacts, pointing at the crew's contact-campaign page. Like the scam
// path, blasts repeat over the contact chunks across several rounds.
func (c *Crew) sendPhishing(st *assessState, acct *identity.Account, work time.Duration, pageID event.PageID) {
	msgs := 3 + c.Rng.Intn(5)
	c.spread(work, rounds(st.contacts, msgs), func(batch []identity.Address) {
		c.E.Mail.Send(mail.SendReq{
			FromAcct: st.acct, FromAddr: acct.Addr, Recipients: batch,
			Keywords: []string{"password", "verify", "account"},
			Class:    event.ClassPhish, PageID: pageID,
			Session: st.sess, Actor: event.ActorHijacker,
		})
	})
}

// rounds cycles over the ChunkContacts chunks of contacts until msgs
// batches are filled: repeat rounds go to the same chunks.
func rounds(contacts []identity.Address, msgs int) [][]identity.Address {
	chunks := ChunkContacts(contacts, msgs)
	var batches [][]identity.Address
	for len(chunks) > 0 && len(batches) < msgs {
		for _, ch := range chunks {
			if len(batches) >= msgs {
				break
			}
			batches = append(batches, ch)
		}
	}
	return batches
}

// spread schedules one send per batch, evenly over the work window.
func (c *Crew) spread(work time.Duration, batches [][]identity.Address, send func([]identity.Address)) {
	step := work / time.Duration(len(batches)+1)
	for i, batch := range batches {
		c.E.Clock.Schedule(c.E.Clock.Now().Add(time.Duration(i+1)*step), func() { send(batch) })
	}
}

// phishContacts phishes the victim's contacts through crew infrastructure
// — the paper's key acquisition pattern ("hijackers favor the use of the
// victim's contacts to select their next set of phishing victims", §5.3,
// 36× hijack rate among contacts) — and adds them to the harvested pool.
// Two lure waves per contact. Returns the page ID, or 0 when disabled.
func (c *Crew) phishContacts(st *assessState) event.PageID {
	if !c.cfg.ContactPhishing || len(st.contacts) == 0 || st.fromTargeted {
		return 0
	}
	for _, addr := range st.contacts {
		if !c.harvestSet[addr] {
			c.harvestSet[addr] = true
			c.harvest = append(c.harvest, addr)
		}
	}
	return c.ContactCampaign(st.contacts, len(st.contacts))
}

// retainAndFinish applies retention tactics and closes the hijack.
func (c *Crew) retainAndFinish(st *assessState) {
	t := c.cfg.Tactics
	victim := c.E.Dir.Get(st.acct)
	doppel := makeDoppelganger(c.Rng, victim.Addr)

	if c.Rng.Bool(t.ReplyToRate) {
		c.E.Mail.SetReplyTo(st.acct, doppel, st.sess, event.ActorHijacker)
	}
	if c.Rng.Bool(t.FilterRate) {
		c.E.Mail.CreateFilter(st.acct, mail.Filter{ToTrash: true, ForwardTo: doppel}, st.sess, event.ActorHijacker)
	}

	lockedOut := c.Rng.Bool(t.LockoutRate)
	if lockedOut {
		c.LockedOut++
		c.E.Auth.ChangePassword(st.acct, fmt.Sprintf("stolen-%06d", c.Rng.Intn(1_000_000)), st.sess, event.ActorHijacker)
		if c.Rng.Bool(t.RecoveryChangeRate) {
			c.E.Auth.ChangeRecovery(st.acct, "email", "", doppel, st.sess, event.ActorHijacker)
		}
		if c.Rng.Bool(t.MassDeleteGivenLockout) {
			c.E.Mail.MassDelete(st.acct, st.sess, event.ActorHijacker)
		}
		if c.Rng.Bool(t.TwoSVLockoutRate) {
			phone := randx.Pick(c.Rng, c.principal.Phones)
			c.E.Auth.Enroll2SV(st.acct, phone, st.sess, event.ActorHijacker)
			c.PhoneLocks++
		}
	}
	c.finish(st, lockedOut)
}

// finish logs the end of the hijack and informs the listener.
func (c *Crew) finish(st *assessState, lockedOut bool) {
	exploited := c.exploitMark[st.acct]
	delete(c.exploitMark, st.acct)
	c.LogEnd(st.acct, st.start, lockedOut, exploited)
}
