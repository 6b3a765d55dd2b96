package playbook

import (
	"net/netip"
	"time"

	"manualhijack/internal/auth"
	"manualhijack/internal/challenge"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/mail"
	"manualhijack/internal/phishkit"
	"manualhijack/internal/randx"
)

const (
	// maxAccountsPerIPDay is §5.1's self-imposed detection-avoidance cap:
	// consistently under 10 distinct accounts per IP per day.
	maxAccountsPerIPDay = 10
	// archetypeIPPoolSize caps the fresh addresses a scaffolded archetype
	// draws per day; the manual crew sets its own (CrewConfig.IPPoolSize).
	archetypeIPPoolSize = 30
)

// Contact-campaign effectiveness: mail that appears to come from a
// regular contact is treated more leniently by filters and humans
// (Jagatic et al., cited in §4), but the rates stay subcritical so the
// contact-targeting loop amplifies rather than saturates the population.
const (
	contactClickRate  = 0.30
	contactConversion = 0.20
)

// Scaffold carries the machinery every attacker shares, the manual crew
// included: the forked random stream, the credential queue with dedupe,
// the per-day disciplined IP pool, the kit device fingerprint, tagged
// login and hijack lifecycle logging, and headline counters. Actors
// embed it and add behavior.
type Scaffold struct {
	E Env
	// Rng is the actor's private substream, forked by name so
	// construction order cannot perturb other actors.
	Rng *randx.Rand

	name    string
	country geo.Country
	arch    string
	device  string
	// principal is the challenge identity presented at login. Archetypes
	// carry no phones and a sliver of guessing skill, so challenges
	// usually stop them; the manual crew adds its phone pool.
	principal challenge.Principal

	queue []phishkit.Credential
	seen  map[identity.AccountID]bool

	ticking bool

	// Disciplined per-day IP pool: fill one cloaking-service address to
	// the per-IP daily account cap before allocating the next, up to
	// ipPoolSize fresh addresses per day.
	ipPoolSize int
	ips        []netip.Addr
	ipDayStart time.Time
	ipUse      map[netip.Addr]map[identity.AccountID]bool

	Processed int
	LoggedIn  int
	Exploited int
}

// newScaffold builds the shared actor base for one archetype instance,
// on the "playbook/"+name substream.
func newScaffold(archetype, name string, country geo.Country, env Env) *Scaffold {
	return &Scaffold{
		E:          env,
		Rng:        env.Rng.Fork("playbook/" + name),
		name:       name,
		country:    country,
		arch:       archetype,
		device:     "kit-" + name,
		principal:  challenge.Principal{KnowledgeSkill: 0.1},
		seen:       map[identity.AccountID]bool{},
		ipPoolSize: archetypeIPPoolSize,
		ipUse:      map[netip.Addr]map[identity.AccountID]bool{},
	}
}

// Name implements Actor.
func (s *Scaffold) Name() string { return s.name }

// Country implements Actor.
func (s *Scaffold) Country() geo.Country { return s.country }

// Archetype implements Actor.
func (s *Scaffold) Archetype() string { return s.arch }

// ActorStats implements StatsProvider.
func (s *Scaffold) ActorStats() (processed, loggedIn, exploited int) {
	return s.Processed, s.LoggedIn, s.Exploited
}

// CredentialCaptured implements phishkit.CredentialSink: captured
// credentials enter the work queue, deduplicated per account.
func (s *Scaffold) CredentialCaptured(cred phishkit.Credential) {
	if s.seen[cred.Account] {
		return
	}
	s.seen[cred.Account] = true
	s.queue = append(s.queue, cred)
}

// QueueLen returns the pending-credential backlog.
func (s *Scaffold) QueueLen() int { return len(s.queue) }

// PopCred takes the oldest queued credential.
func (s *Scaffold) PopCred() (phishkit.Credential, bool) {
	if len(s.queue) == 0 {
		return phishkit.Credential{}, false
	}
	cred := s.queue[0]
	s.queue = s.queue[1:]
	return cred, true
}

// NextCred takes the oldest queued credential together with a
// disciplined IP to work it from. It reports false when the queue is
// empty or the day's IP pool is exhausted; the queue is then left as it
// was, so tomorrow resumes with the same credential.
func (s *Scaffold) NextCred() (phishkit.Credential, netip.Addr, bool) {
	if len(s.queue) == 0 {
		return phishkit.Credential{}, netip.Addr{}, false
	}
	ip, ok := s.PickIP(s.queue[0].Account)
	if !ok {
		return phishkit.Credential{}, netip.Addr{}, false
	}
	cred, _ := s.PopCred()
	return cred, ip, true
}

// StartTicks begins the actor's periodic work loop. Guards against
// double starts, which would double-spend the random stream.
func (s *Scaffold) StartTicks(every time.Duration, end time.Time, tick func()) {
	s.MarkStarted()
	s.E.Clock.Every(every, end, tick)
}

// MarkStarted applies the start guard for actors that schedule
// everything from credential callbacks instead of a tick loop.
func (s *Scaffold) MarkStarted() {
	if s.ticking {
		panic("playbook: actor " + s.name + " started twice")
	}
	s.ticking = true
}

// PickIP returns a home-country IP whose distinct-account count today is
// under the discipline cap, filling one address before allocating the
// next (that keeps the per-IP daily average just under the cap, as in
// Figure 8). Reports false when the day's pool is exhausted — the cap is
// the discipline, not a suggestion.
func (s *Scaffold) PickIP(acct identity.AccountID) (netip.Addr, bool) {
	day := dayOf(s.E.Clock.Now())
	if !s.ipDayStart.Equal(day) {
		s.ipDayStart = day
		s.ips = s.ips[:0]
		s.ipUse = map[netip.Addr]map[identity.AccountID]bool{}
	}
	for _, ip := range s.ips {
		u := s.ipUse[ip]
		if u[acct] || len(u) < maxAccountsPerIPDay {
			u[acct] = true
			return ip, true
		}
	}
	if len(s.ips) >= s.ipPoolSize {
		return netip.Addr{}, false
	}
	ip := s.E.Plan.Addr(s.Rng, s.country)
	s.ips = append(s.ips, ip)
	s.ipUse[ip] = map[identity.AccountID]bool{acct: true}
	return ip, true
}

// FreshIP draws a new address in the given country, outside the
// disciplined pool — for archetypes whose signature is precisely that
// they ignore IP discipline (stuffers, hoppers).
func (s *Scaffold) FreshIP(country geo.Country) netip.Addr {
	return s.E.Plan.Addr(s.Rng, country)
}

// Device is the actor's shared kit fingerprint.
func (s *Scaffold) Device() string { return s.device }

// Login performs one tagged hijacker login attempt.
func (s *Scaffold) Login(acct identity.AccountID, password string, ip netip.Addr, device string) auth.LoginResult {
	return s.E.Auth.Login(auth.LoginReq{
		Account: acct, Password: password, IP: ip, DeviceID: device,
		Principal: s.principal, Actor: event.ActorHijacker,
		Archetype: s.arch,
	})
}

// LogStart emits the tagged HijackStarted record.
func (s *Scaffold) LogStart(acct identity.AccountID, sess event.SessionID) {
	s.E.Log.Append(event.HijackStarted{
		Base: event.Base{Time: s.E.Clock.Now()}, Account: acct,
		Crew: s.name, Session: sess, Archetype: s.arch,
	})
}

// LogEnd emits the tagged HijackEnded record and notifies the listener
// so victim recovery machinery can react.
func (s *Scaffold) LogEnd(acct identity.AccountID, hijackedAt time.Time, lockedOut, exploited bool) {
	s.E.Log.Append(event.HijackEnded{
		Base: event.Base{Time: s.E.Clock.Now()}, Account: acct,
		Crew: s.name, LockedOut: lockedOut, Archetype: s.arch,
	})
	if s.E.Listener != nil {
		s.E.Listener.HijackEnded(s.name, acct, hijackedAt, lockedOut, exploited)
	}
}

// Contacts harvests the account's address book in-session.
func (s *Scaffold) Contacts(acct identity.AccountID, sess event.SessionID) []identity.Address {
	return s.E.Mail.ViewContacts(acct, sess, event.ActorHijacker)
}

// ContactCampaign phishes victims with the given number of lures from
// the actor's own infrastructure, as mail that appears to come from a
// regular contact: higher click and submit rates than a mass campaign,
// converting at the contacts' own mail-checking pace. Captures land in
// this scaffold's queue. Returns the page ID.
func (s *Scaffold) ContactCampaign(victims []identity.Address, lures int) event.PageID {
	camp := phishkit.DefaultCampaign(event.TargetMail, lures)
	camp.Victims = victims
	camp.Sink = s
	camp.ClickRate = contactClickRate
	camp.Conversion = contactConversion
	camp.ClickDelayMean = 20 * time.Hour
	return s.E.Inf.Launch(camp)
}

// SendBatches blasts recipients in ChunkContacts batches from the
// hijacked account until the recipient-slot target is reached (the full
// list repeats if shorter than the target). Returns recipient slots used.
func (s *Scaffold) SendBatches(acct identity.AccountID, sess event.SessionID, recipients []identity.Address, target, nChunks int, class event.MessageClass, customized bool, keywords []string, pageID event.PageID) int {
	rec := s.E.Dir.Get(acct)
	if rec == nil || len(recipients) == 0 || target <= 0 {
		return 0
	}
	chunks := ChunkContacts(recipients, nChunks)
	sent := 0
	for sent < target {
		for _, ch := range chunks {
			if sent >= target {
				break
			}
			s.E.Mail.Send(mail.SendReq{
				FromAcct: acct, FromAddr: rec.Addr, Recipients: ch,
				Keywords: keywords, Class: class, Customized: customized,
				PageID: pageID, Session: sess, Actor: event.ActorHijacker,
			})
			sent += len(ch)
		}
	}
	return sent
}

// ChunkContacts splits contacts into up to n batches, keeping every batch
// at a "high number of recipients" (at least minBatchRecipients when the
// contact list allows it — §5.3: uncustomized messages go to many
// recipients, and only ~6% of cases involve sub-ten-recipient mail).
// n <= 0 (including config-derived chunk counts from the archetypes,
// which call this with arbitrary settings) is clamped to a single batch
// rather than left to the caller.
func ChunkContacts(contacts []identity.Address, n int) [][]identity.Address {
	const minBatchRecipients = 12
	if len(contacts) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if maxBatches := len(contacts) / minBatchRecipients; n > maxBatches {
		n = maxBatches
	}
	if n < 1 {
		n = 1
	}
	size := (len(contacts) + n - 1) / n
	var out [][]identity.Address
	for i := 0; i < len(contacts); i += size {
		j := i + size
		if j > len(contacts) {
			j = len(contacts)
		}
		out = append(out, contacts[i:j])
	}
	// Merge a small trailing remainder into the previous batch.
	if k := len(out); k > 1 && len(out[k-1]) < minBatchRecipients {
		merged := append(append([]identity.Address{}, out[k-2]...), out[k-1]...)
		out = append(out[:k-2], merged)
	}
	return out
}

// dayOf truncates t to its UTC day (IP pool and daily-campaign
// bookkeeping).
func dayOf(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
}
