// Package playbook is the attacker subsystem: the actor contract —
// credential intake from phishing pages, scheduled ticks off the
// simulation clock, IP/device selection, event emission into the log —
// one shared base (Scaffold) that every attacker embeds, and a registry
// of named attacker archetypes built on it.
//
// The manual crew of the source paper (Crew, the "manual" archetype) is
// the first registered playbook: it collects phished credentials, logs
// in fast from a disciplined IP pool, spends ~3 minutes assessing the
// account's value (mailbox searches for financial terms, significant-
// folder opens, a contact-list view), abandons low-value accounts,
// exploits valuable ones with semi-personalized scams or contact-targeted
// phishing, and applies retention tactics (lockout, recovery-option
// changes, filters, Reply-To doppelgangers, 2-step-verification lockout
// with crew phones). §5.5's "ordinary office job" evidence is modeled
// directly: crew members work a tight daily schedule with a synchronized
// one-hour lunch break and weekends off, share tooling (one device
// fingerprint per crew) and phone pools, and work different victims from
// different IPs in parallel.
//
// The rest come from the anti-abuse FRAUD_TYPES catalog (smash & grab,
// low & slow, country hopper, data thief, credential stuffer, and
// friends) and from related work: the enterprise lateral phisher that
// spreads account→contacts inside the org graph (Ho et al. 2019, Shah et
// al. 2020), and the impersonation-as-a-service attacker that replays the
// victim's own browser fingerprint so device-novelty scoring is blind to
// it (Campobasso & Allodi 2020).
//
// Every actor stamps its archetype name on the login and hijack-lifecycle
// records it emits (ground truth that survives dumps), which is what the
// per-archetype detection scorecard (analysis.ArchetypeScorecard) keys
// on. Detectors must not read the tag.
package playbook

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"manualhijack/internal/auth"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/mail"
	"manualhijack/internal/phishkit"
	"manualhijack/internal/randx"
	"manualhijack/internal/simtime"
)

// Actor is the attacker contract: an agent that receives phished
// credentials, schedules its own activity against the simulation clock,
// and works accounts through the same provider services victims use.
// Crew and every other archetype here satisfy it by embedding Scaffold
// and adding Start.
type Actor interface {
	phishkit.CredentialSink
	// Name identifies the actor instance (unique within a world).
	Name() string
	// Archetype names the playbook the actor runs ("manual", "smashgrab",
	// ...) — the ground-truth tag on its emitted events.
	Archetype() string
	// Country is the actor's home origin (IP pool allocation).
	Country() geo.Country
	// Start schedules the actor's activity until end. Called exactly once.
	Start(end time.Time)
}

// StatsProvider is the optional counters surface actors expose for CLI
// tables and calibration (Scaffold implements it).
type StatsProvider interface {
	ActorStats() (processed, loggedIn, exploited int)
}

// Env is the world wiring every actor operates against. Rng is the
// world's root stream: every actor forks its own substream by name, so
// actor construction order cannot perturb anyone else's randomness.
type Env struct {
	Clock *simtime.Clock
	Log   *logstore.Store
	Rng   *randx.Rand
	Dir   *identity.Directory
	Mail  *mail.Service
	Auth  *auth.Service
	Inf   *phishkit.Infrastructure
	Plan  *geo.IPPlan
	// Listener receives hijack-ended callbacks (the victim manager);
	// optional.
	Listener Listener
	// Recovery is the recovery service manual crews abuse for impostor
	// claims; optional.
	Recovery RecoveryFiler
}

// Listener receives hijack lifecycle callbacks (wired to the victim and
// recovery machinery by the world assembler).
type Listener interface {
	// HijackEnded fires when an actor finishes with an account.
	HijackEnded(crew string, acct identity.AccountID, hijackedAt time.Time, lockedOut, exploited bool)
}

// RecoveryFiler is the slice of the recovery service crews abuse for
// impostor claims.
type RecoveryFiler interface {
	FileFraudClaim(acct identity.AccountID, onSuccess func(newPassword string))
}

// Constructor builds one named actor instance of an archetype. Each
// archetype picks its own home country, schedule, and IP discipline.
type Constructor func(name string, env Env) Actor

var archetypes = map[string]Constructor{}

// Register adds an archetype constructor under name. Panics on duplicate
// registration — archetype names are ground-truth labels and must be
// unambiguous.
func Register(name string, ctor Constructor) {
	if _, dup := archetypes[name]; dup {
		panic("playbook: duplicate archetype " + name)
	}
	archetypes[name] = ctor
}

// Names returns every registered archetype name, sorted.
func Names() []string {
	out := make([]string, 0, len(archetypes))
	for name := range archetypes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds an actor of the named archetype; an empty name defaults to
// the archetype's. Unknown archetypes error (they would silently drop
// attack traffic otherwise).
func New(archetype, name string, env Env) (Actor, error) {
	ctor, ok := archetypes[archetype]
	if !ok {
		return nil, fmt.Errorf("playbook: unknown archetype %q (have %s)",
			archetype, strings.Join(Names(), ", "))
	}
	if name == "" {
		name = archetype
	}
	return ctor(name, env), nil
}

// RosterEntry is one parsed `-archetypes` element: an archetype and how
// many instances of it to field.
type RosterEntry struct {
	Archetype string
	Count     int
}

// ParseRoster parses a CLI roster spec like "smashgrab:3,stuffer:2" (a
// bare name means count 1). Every name is validated against the registry
// so typos fail loudly instead of silently fielding no attackers.
func ParseRoster(spec string) ([]RosterEntry, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []RosterEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, countStr, hasCount := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if _, ok := archetypes[name]; !ok {
			return nil, fmt.Errorf("playbook: unknown archetype %q (have %s)",
				name, strings.Join(Names(), ", "))
		}
		count := 1
		if hasCount {
			n, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("playbook: bad count %q for archetype %q", countStr, name)
			}
			count = n
		}
		out = append(out, RosterEntry{Archetype: name, Count: count})
	}
	return out, nil
}
