package playbook

import (
	"fmt"
	"net/netip"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/phishkit"
	"manualhijack/internal/randx"
)

// This file implements the non-manual archetypes: eight patterns from
// the anti-abuse FRAUD_TYPES catalog (smash & grab, low & slow, country
// hopper, data thief, credential stuffer, spam cannon, sleeper,
// ransomer) and the two related-work profiles (enterprise lateral
// phisher, impersonation-as-a-service). Each registers a constructor,
// embeds *Scaffold, and emits its characteristic signal signature —
// the shape a detector would key on, and what the per-archetype unit
// tests assert. The manual crew lives in hijacker.go.

func init() {
	Register(ManualArchetype, newManual)
	Register("smashgrab", newSmashGrab)
	Register("lowslow", newLowSlow)
	Register("hopper", newHopper)
	Register("datathief", newDataThief)
	Register("stuffer", newStuffer)
	Register("spamcannon", newSpamCannon)
	Register("sleeper", newSleeper)
	Register("ransomer", newRansomer)
	Register("lateralphisher", newLateralPhisher)
	Register("impaas", newIMPaaS)
}

// ---------------------------------------------------------------------
// smashgrab — maximum extraction before the owner can react: login,
// download contacts and inbox, blast 80–200 scam recipient slots within
// 1–3 hours, lock the owner out and burn the account inside a day.
// Signature: contact exfil + large same-session spam burst + password
// change, all within hours of first entry.
// ---------------------------------------------------------------------

type smashGrab struct{ *Scaffold }

func newSmashGrab(name string, env Env) Actor {
	return &smashGrab{newScaffold("smashgrab", name, geo.Nigeria, env)}
}

func (a *smashGrab) Start(end time.Time) { a.StartTicks(9*time.Minute, end, a.tick) }

func (a *smashGrab) tick() {
	for i := 0; i < 3; i++ {
		cred, ip, ok := a.NextCred()
		if !ok {
			return
		}
		a.Processed++
		res := a.Login(cred.Account, cred.Password, ip, a.Device())
		if res.Outcome != event.LoginSuccess {
			continue
		}
		a.LoggedIn++
		start := a.E.Clock.Now()
		a.LogStart(cred.Account, res.Session)
		contacts := a.Contacts(cred.Account, res.Session)
		a.E.Mail.OpenFolder(cred.Account, event.FolderInbox, res.Session, event.ActorHijacker)

		acct, sess := cred.Account, res.Session
		blastAt := start.Add(a.Rng.DurationBetween(time.Hour, 3*time.Hour))
		target := 80 + a.Rng.Intn(121) // 80–200 recipient slots
		a.E.Clock.Schedule(blastAt, func() {
			if a.SendBatches(acct, sess, contacts, target, 4, event.ClassScam,
				false, []string{"urgent", "money", "western union"}, 0) > 0 {
				a.Exploited++
			}
		})
		// Burn the account: password change locks the owner out; done
		// well inside 24 hours.
		closeAt := blastAt.Add(a.Rng.DurationBetween(time.Hour, 12*time.Hour))
		pw := fmt.Sprintf("smash-%06d", a.Rng.Intn(1_000_000))
		a.E.Clock.Schedule(closeAt, func() {
			a.E.Auth.ChangePassword(acct, pw, sess, event.ActorHijacker)
			a.LogEnd(acct, start, true, true)
		})
	}
}

// ---------------------------------------------------------------------
// lowslow — patience as cover: first touch 2–5 days after capture, then
// a handful of small customized sends spread over 2–3 further days,
// account left open. Signature: activity span ≥4 days from capture, low
// per-day volume, no lockout.
// ---------------------------------------------------------------------

type lowSlow struct{ *Scaffold }

func newLowSlow(name string, env Env) Actor {
	return &lowSlow{newScaffold("lowslow", name, geo.IvoryCoast, env)}
}

func (a *lowSlow) Start(time.Time) { a.MarkStarted() }

// CredentialCaptured schedules the whole slow arc directly: no tick
// loop, nothing to batch — the point is that nothing ever bursts.
func (a *lowSlow) CredentialCaptured(cred phishkit.Credential) {
	before := a.QueueLen()
	a.Scaffold.CredentialCaptured(cred)
	if a.QueueLen() == before { // duplicate account
		return
	}
	a.E.Clock.After(a.Rng.DurationBetween(2*24*time.Hour, 5*24*time.Hour), func() {
		c, ok := a.PopCred()
		if ok {
			a.begin(c)
		}
	})
}

func (a *lowSlow) begin(cred phishkit.Credential) {
	ip, ok := a.PickIP(cred.Account)
	if !ok {
		ip = a.FreshIP(a.Country())
	}
	a.Processed++
	res := a.Login(cred.Account, cred.Password, ip, a.Device())
	if res.Outcome != event.LoginSuccess {
		return
	}
	a.LoggedIn++
	start := a.E.Clock.Now()
	a.LogStart(cred.Account, res.Session)
	contacts := a.Contacts(cred.Account, res.Session)
	if len(contacts) == 0 {
		a.LogEnd(cred.Account, start, false, false)
		return
	}
	// 4–6 small waves of 3–8 customized pleas over 2–3 days; total lands
	// in the catalog's 15–40 recipient band.
	waves := 4 + a.Rng.Intn(3)
	span := a.Rng.DurationBetween(2*24*time.Hour, 3*24*time.Hour)
	acct, sess := cred.Account, res.Session
	sent := false // count the account as exploited once, not per wave
	for i := 0; i < waves; i++ {
		at := start.Add(time.Duration(i+1) * span / time.Duration(waves))
		k := 3 + a.Rng.Intn(6)
		batch := randx.Sample(a.Rng, contacts, k)
		a.E.Clock.Schedule(at, func() {
			if a.SendBatches(acct, sess, batch, len(batch), 1, event.ClassScam,
				true, []string{"help", "favor"}, 0) > 0 && !sent {
				sent = true
				a.Exploited++
			}
		})
	}
	// Leave the account open — the owner keeps using it none the wiser.
	a.E.Clock.Schedule(start.Add(span).Add(time.Hour), func() {
		a.LogEnd(acct, start, false, true)
	})
}

// ---------------------------------------------------------------------
// hopper — the same account entered from 3–4 different countries over
// about a week (resold credentials or a roaming proxy kit), spam from
// the last stop. Signature: one account's hijacker logins geolocate to
// ≥3 countries.
// ---------------------------------------------------------------------

type hopper struct {
	*Scaffold
	route []geo.Country
}

func newHopper(name string, env Env) Actor {
	return &hopper{
		Scaffold: newScaffold("hopper", name, geo.Malaysia, env),
		route: []geo.Country{
			geo.Malaysia, geo.Nigeria, geo.China, geo.Venezuela, geo.SouthAfrica,
		},
	}
}

func (a *hopper) Start(end time.Time) { a.StartTicks(11*time.Minute, end, a.tick) }

func (a *hopper) tick() {
	for i := 0; i < 2; i++ {
		cred, ok := a.PopCred()
		if !ok {
			return
		}
		a.Processed++
		stops := 3 + a.Rng.Intn(2) // 3–4 countries
		first := a.Rng.Intn(len(a.route))
		start := a.E.Clock.Now()
		st := &hopperState{}
		for hop := 0; hop < stops; hop++ {
			country := a.route[(first+hop)%len(a.route)]
			at := start.Add(time.Duration(hop) * a.Rng.DurationBetween(36*time.Hour, 56*time.Hour))
			last := hop == stops-1
			a.E.Clock.Schedule(at, func() {
				a.hop(cred, country, st, last)
			})
		}
	}
}

type hopperState struct {
	entered  bool
	enteredA time.Time
	contacts []identity.Address
	dead     bool
}

func (a *hopper) hop(cred phishkit.Credential, country geo.Country, st *hopperState, last bool) {
	if st.dead {
		return
	}
	res := a.Login(cred.Account, cred.Password, a.FreshIP(country), a.Device())
	if res.Outcome != event.LoginSuccess {
		if res.Outcome != event.LoginWrongPassword {
			return // challenged or blocked this stop; try the next
		}
		st.dead = true // password rotated out from under the route
		if st.entered {
			a.LogEnd(cred.Account, st.enteredA, false, false)
		}
		return
	}
	if !st.entered {
		st.entered = true
		st.enteredA = a.E.Clock.Now()
		a.LoggedIn++
		a.LogStart(cred.Account, res.Session)
		st.contacts = a.Contacts(cred.Account, res.Session)
	}
	if last {
		exploited := a.SendBatches(cred.Account, res.Session, st.contacts,
			30+a.Rng.Intn(41), 3, event.ClassScam, false,
			[]string{"stranded", "money"}, 0) > 0
		if exploited {
			a.Exploited++
		}
		a.LogEnd(cred.Account, st.enteredA, false, exploited)
	}
}

// ---------------------------------------------------------------------
// datathief — exfiltration only: login, pull the address book and walk
// the folders, close inside half an hour. Signature: contact exfil plus
// folder sweeps with zero outbound messages, ever.
// ---------------------------------------------------------------------

type dataThief struct{ *Scaffold }

func newDataThief(name string, env Env) Actor {
	return &dataThief{newScaffold("datathief", name, geo.China, env)}
}

func (a *dataThief) Start(end time.Time) { a.StartTicks(8*time.Minute, end, a.tick) }

func (a *dataThief) tick() {
	for i := 0; i < 4; i++ {
		cred, ip, ok := a.NextCred()
		if !ok {
			return
		}
		a.Processed++
		res := a.Login(cred.Account, cred.Password, ip, a.Device())
		if res.Outcome != event.LoginSuccess {
			continue
		}
		a.LoggedIn++
		start := a.E.Clock.Now()
		a.LogStart(cred.Account, res.Session)
		a.Contacts(cred.Account, res.Session)
		acct, sess := cred.Account, res.Session
		step := a.Rng.DurationBetween(2*time.Minute, 6*time.Minute)
		folders := []event.Folder{event.FolderInbox, event.FolderSent, event.FolderDrafts}
		for j, f := range folders {
			folder := f
			a.E.Clock.Schedule(start.Add(time.Duration(j+1)*step), func() {
				a.E.Mail.OpenFolder(acct, folder, sess, event.ActorHijacker)
			})
		}
		// The haul is the data itself; no spam would only risk exposure.
		a.E.Clock.Schedule(start.Add(time.Duration(len(folders)+1)*step), func() {
			a.Exploited++
			a.LogEnd(acct, start, false, true)
		})
	}
}

// ---------------------------------------------------------------------
// stuffer — credential-list validation at pace: bursts of 3–7 accounts
// pushed through a single fresh IP seconds apart, minimal post-login
// activity. Signature: one IP touching many distinct accounts inside
// minutes — the anti-discipline that stresses IP-fanout detectors.
// ---------------------------------------------------------------------

type stuffer struct{ *Scaffold }

func newStuffer(name string, env Env) Actor {
	return &stuffer{newScaffold("stuffer", name, geo.Vietnam, env)}
}

func (a *stuffer) Start(end time.Time) { a.StartTicks(13*time.Minute, end, a.tick) }

func (a *stuffer) tick() {
	if a.QueueLen() == 0 {
		return
	}
	n := 3 + a.Rng.Intn(5) // burst of 3–7
	if q := a.QueueLen(); n > q {
		n = q
	}
	ip := a.FreshIP(a.Country())
	now := a.E.Clock.Now()
	for i := 0; i < n; i++ {
		cred, ok := a.PopCred()
		if !ok {
			return
		}
		at := now.Add(time.Duration(i) * a.Rng.DurationBetween(20*time.Second, 50*time.Second))
		a.E.Clock.Schedule(at, func() { a.validate(cred, ip) })
	}
}

func (a *stuffer) validate(cred phishkit.Credential, ip netip.Addr) {
	a.Processed++
	res := a.Login(cred.Account, cred.Password, ip, a.Device())
	if res.Outcome != event.LoginSuccess {
		return
	}
	a.LoggedIn++
	start := a.E.Clock.Now()
	a.LogStart(cred.Account, res.Session)
	// A single inbox peek confirms the account is live; the validated
	// credential is the product, resold rather than worked.
	a.E.Mail.OpenFolder(cred.Account, event.FolderInbox, res.Session, event.ActorHijacker)
	a.LogEnd(cred.Account, start, false, false)
}

// ---------------------------------------------------------------------
// spamcannon — the account is a relay: login and immediately pump bulk
// spam to the address book in minutes, no finesse, gone within the
// hour. Signature: bulk-class outbound at maximum rate right after
// entry.
// ---------------------------------------------------------------------

type spamCannon struct{ *Scaffold }

func newSpamCannon(name string, env Env) Actor {
	return &spamCannon{newScaffold("spamcannon", name, geo.Brazil, env)}
}

func (a *spamCannon) Start(end time.Time) { a.StartTicks(10*time.Minute, end, a.tick) }

func (a *spamCannon) tick() {
	for i := 0; i < 2; i++ {
		cred, ok := a.PopCred()
		if !ok {
			return
		}
		a.Processed++
		res := a.Login(cred.Account, cred.Password, a.FreshIP(a.Country()), a.Device())
		if res.Outcome != event.LoginSuccess {
			continue
		}
		a.LoggedIn++
		start := a.E.Clock.Now()
		a.LogStart(cred.Account, res.Session)
		contacts := a.Contacts(cred.Account, res.Session)
		acct, sess := cred.Account, res.Session
		rounds := 3
		sent := false // count the account as exploited once, not per round
		for r := 0; r < rounds; r++ {
			at := start.Add(time.Duration(r+1) * a.Rng.DurationBetween(90*time.Second, 4*time.Minute))
			a.E.Clock.Schedule(at, func() {
				if a.SendBatches(acct, sess, contacts, 40+a.Rng.Intn(31), 2,
					event.ClassSpamBulk, false, []string{"pharmacy", "deal"}, 0) > 0 && !sent {
					sent = true
					a.Exploited++
				}
			})
		}
		a.E.Clock.Schedule(start.Add(20*time.Minute), func() {
			a.LogEnd(acct, start, false, true)
		})
	}
}

// ---------------------------------------------------------------------
// sleeper — validate now, cash in later: a quiet confirmation login,
// then nothing for 7–10 days before returning to exploit. Signature:
// two tagged entries on the same account ≥7 days apart with silence
// between.
// ---------------------------------------------------------------------

type sleeper struct{ *Scaffold }

func newSleeper(name string, env Env) Actor {
	return &sleeper{newScaffold("sleeper", name, geo.India, env)}
}

func (a *sleeper) Start(end time.Time) { a.StartTicks(12*time.Minute, end, a.tick) }

func (a *sleeper) tick() {
	cred, ip, ok := a.NextCred()
	if !ok {
		return
	}
	a.Processed++
	res := a.Login(cred.Account, cred.Password, ip, a.Device())
	if res.Outcome != event.LoginSuccess {
		return
	}
	a.LoggedIn++
	start := a.E.Clock.Now()
	a.LogStart(cred.Account, res.Session)
	a.E.Mail.OpenFolder(cred.Account, event.FolderInbox, res.Session, event.ActorHijacker)
	a.E.Clock.After(a.Rng.DurationBetween(7*24*time.Hour, 10*24*time.Hour), func() {
		a.wake(cred, start)
	})
}

func (a *sleeper) wake(cred phishkit.Credential, firstEntry time.Time) {
	res := a.Login(cred.Account, cred.Password, a.FreshIP(a.Country()), a.Device())
	if res.Outcome != event.LoginSuccess {
		// The nap cost the access (password rotated, risk engine woke up).
		a.LogEnd(cred.Account, firstEntry, false, false)
		return
	}
	contacts := a.Contacts(cred.Account, res.Session)
	exploited := a.SendBatches(cred.Account, res.Session, contacts,
		25+a.Rng.Intn(26), 2, event.ClassScam, false,
		[]string{"urgent", "transfer"}, 0) > 0
	if exploited {
		a.Exploited++
	}
	a.LogEnd(cred.Account, firstEntry, false, exploited)
}

// ---------------------------------------------------------------------
// ransomer — extortion: seize the account by changing the password
// within minutes of entry, then ransom it back via customized notes to
// the victim's closest contacts. Signature: hijacker password change
// almost immediately after entry plus small customized extortion sends.
// ---------------------------------------------------------------------

type ransomer struct{ *Scaffold }

func newRansomer(name string, env Env) Actor {
	return &ransomer{newScaffold("ransomer", name, geo.SouthAfrica, env)}
}

func (a *ransomer) Start(end time.Time) { a.StartTicks(14*time.Minute, end, a.tick) }

func (a *ransomer) tick() {
	for i := 0; i < 2; i++ {
		cred, ip, ok := a.NextCred()
		if !ok {
			return
		}
		a.Processed++
		res := a.Login(cred.Account, cred.Password, ip, a.Device())
		if res.Outcome != event.LoginSuccess {
			continue
		}
		a.LoggedIn++
		start := a.E.Clock.Now()
		a.LogStart(cred.Account, res.Session)
		contacts := a.Contacts(cred.Account, res.Session)
		acct, sess := cred.Account, res.Session
		pw := fmt.Sprintf("ransom-%06d", a.Rng.Intn(1_000_000))
		seizeAt := start.Add(a.Rng.DurationBetween(2*time.Minute, 9*time.Minute))
		a.E.Clock.Schedule(seizeAt, func() {
			// Seize first — the lockout IS the product being sold back.
			a.E.Auth.ChangePassword(acct, pw, sess, event.ActorHijacker)
			demand := randx.Sample(a.Rng, contacts, 5)
			if a.SendBatches(acct, sess, demand, len(demand), 1, event.ClassScam,
				true, []string{"ransom", "pay", "account"}, 0) > 0 {
				a.Exploited++
			}
			a.LogEnd(acct, start, true, true)
		})
	}
}

// ---------------------------------------------------------------------
// lateralphisher — the enterprise spread pattern (Ho et al. 2019): a
// compromised account phishes its own contacts with targeted lures, and
// every capture feeds the same actor, so compromise walks the org
// graph. Signature: targeted phishing-class mail carrying a live page
// from freshly hijacked accounts, chained over generations.
// ---------------------------------------------------------------------

type lateralPhisher struct{ *Scaffold }

func newLateralPhisher(name string, env Env) Actor {
	return &lateralPhisher{newScaffold("lateralphisher", name, geo.US, env)}
}

func (a *lateralPhisher) Start(end time.Time) { a.StartTicks(10*time.Minute, end, a.tick) }

func (a *lateralPhisher) tick() {
	for i := 0; i < 2; i++ {
		cred, ip, ok := a.NextCred()
		if !ok {
			return
		}
		a.Processed++
		res := a.Login(cred.Account, cred.Password, ip, a.Device())
		if res.Outcome != event.LoginSuccess {
			continue
		}
		a.LoggedIn++
		start := a.E.Clock.Now()
		a.LogStart(cred.Account, res.Session)
		contacts := a.Contacts(cred.Account, res.Session)
		if len(contacts) == 0 {
			a.LogEnd(cred.Account, start, false, false)
			continue
		}
		// A targeted page whose captures flow back into this actor's
		// queue: each generation of victims seeds the next.
		pageID := a.ContactCampaign(contacts, len(contacts))
		sent := a.SendBatches(cred.Account, res.Session, contacts,
			len(contacts), 3, event.ClassPhish, true,
			[]string{"document", "shared", "review"}, pageID)
		if sent > 0 {
			a.Exploited++
		}
		acct := cred.Account
		a.E.Clock.Schedule(start.Add(30*time.Minute), func() {
			a.LogEnd(acct, start, false, sent > 0)
		})
	}
}

// ---------------------------------------------------------------------
// impaas — impersonation-as-a-service (Campobasso & Allodi 2020): the
// kit ships the victim's own browser fingerprint and a residential exit
// in the victim's home country, so device-novelty and geo-velocity
// signals both read "the usual user". Signature: hijacker logins whose
// device equals the victim's fingerprint and whose IP geolocates home.
// ---------------------------------------------------------------------

type impaas struct{ *Scaffold }

func newIMPaaS(name string, env Env) Actor {
	return &impaas{newScaffold("impaas", name, geo.France, env)}
}

func (a *impaas) Start(end time.Time) { a.StartTicks(15*time.Minute, end, a.tick) }

func (a *impaas) tick() {
	for i := 0; i < 2; i++ {
		cred, ok := a.PopCred()
		if !ok {
			return
		}
		victim := a.E.Dir.Get(cred.Account)
		if victim == nil {
			continue
		}
		a.Processed++
		// The whole point: the victim's fingerprint from a residential
		// exit in the victim's own country — not the kit, not home base.
		ip := a.FreshIP(victim.HomeCountry)
		device := identity.DeviceFingerprint(cred.Account)
		res := a.Login(cred.Account, cred.Password, ip, device)
		if res.Outcome != event.LoginSuccess {
			continue
		}
		a.LoggedIn++
		start := a.E.Clock.Now()
		a.LogStart(cred.Account, res.Session)
		a.E.Mail.OpenFolder(cred.Account, event.FolderInbox, res.Session, event.ActorHijacker)
		contacts := a.Contacts(cred.Account, res.Session)
		acct, sess := cred.Account, res.Session
		// Blend in: a modest customized run after a day-plus of quiet,
		// volume low enough to pass for the owner.
		at := start.Add(a.Rng.DurationBetween(24*time.Hour, 48*time.Hour))
		a.E.Clock.Schedule(at, func() {
			batch := randx.Sample(a.Rng, contacts, 6)
			if a.SendBatches(acct, sess, batch, len(batch), 1, event.ClassScam,
				true, []string{"invoice", "payment"}, 0) > 0 {
				a.Exploited++
			}
			a.LogEnd(acct, start, false, true)
		})
	}
}
