package analysis

import (
	"sort"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/stats"
)

// ArchetypeOutcome is one scorecard row: how the login defense fared
// against a single attacker archetype, keyed by the ground-truth tag the
// playbook actors stamp on their login attempts.
type ArchetypeOutcome struct {
	Archetype string
	// Accounts is the number of distinct accounts the archetype attempted.
	Accounts int
	// Attempts / Logins are login attempts and successful entries.
	Attempts int
	Logins   int
	// Challenged / Blocked count attempt-level defense reactions.
	Challenged int
	Blocked    int
	// Detected is the number of attempted accounts where the defense
	// reacted at least once (challenge, block, or failed challenge).
	Detected int
	// Recall is Detected / Accounts.
	Recall float64
	// MedianTTD is the median, over detected accounts, of first attempt →
	// first defense reaction.
	MedianTTD time.Duration
}

// ArchetypeScorecard is the per-archetype detection scorecard plus the
// §8.1 false-positive cost: every challenge or block spent on owners is
// the price of the recall in the rows.
type ArchetypeScorecard struct {
	Rows []ArchetypeOutcome
	// Owner* count legitimate-owner login attempts and how many of them
	// the defense challenged or blocked (the FP cost side of the §8.1
	// block/challenge trade-off).
	OwnerLogins          int
	OwnerChallenged      int
	OwnerBlocked         int
	OwnerChallengedShare float64
	OwnerBlockedShare    float64
}

// archAcct tracks one attempted account within one archetype.
type archAcct struct {
	first     time.Time
	detected  time.Time
	hasDetect bool
}

// archRow is the mutable per-archetype state.
type archRow struct {
	attempts   int
	logins     int
	challenged int
	blocked    int
	accts      map[identity.AccountID]*archAcct
}

// ArchetypeScorecardBuilder computes the scorecard incrementally.
type ArchetypeScorecardBuilder struct {
	rows map[string]*archRow

	ownerLogins     int
	ownerChallenged int
	ownerBlocked    int
}

// NewArchetypeScorecardBuilder returns an empty builder.
func NewArchetypeScorecardBuilder() *ArchetypeScorecardBuilder {
	return &ArchetypeScorecardBuilder{rows: map[string]*archRow{}}
}

func (b *ArchetypeScorecardBuilder) row(archetype string) *archRow {
	r := b.rows[archetype]
	if r == nil {
		r = &archRow{accts: map[identity.AccountID]*archAcct{}}
		b.rows[archetype] = r
	}
	return r
}

// Observe feeds one event. Only login records matter; untagged hijacker
// attempts (pre-archetype dumps) fall outside the rows by design.
func (b *ArchetypeScorecardBuilder) Observe(e event.Event) {
	l, ok := e.(event.Login)
	if !ok {
		return
	}
	if l.Actor != event.ActorHijacker {
		b.ownerLogins++
		if l.Challenged {
			b.ownerChallenged++
		}
		if l.Outcome == event.LoginBlocked {
			b.ownerBlocked++
		}
		return
	}
	if l.Archetype == "" {
		return
	}
	r := b.row(l.Archetype)
	r.attempts++
	if l.Outcome == event.LoginSuccess {
		r.logins++
	}
	if l.Challenged {
		r.challenged++
	}
	if l.Outcome == event.LoginBlocked {
		r.blocked++
	}
	a := r.accts[l.Account]
	if a == nil {
		a = &archAcct{first: l.When()}
		r.accts[l.Account] = a
	}
	detected := l.Challenged ||
		l.Outcome == event.LoginBlocked ||
		l.Outcome == event.LoginChallengeFailed
	if detected && !a.hasDetect {
		a.detected = l.When()
		a.hasDetect = true
	}
}

// Scorecard snapshots the rows, sorted by archetype name.
func (b *ArchetypeScorecardBuilder) Scorecard() ArchetypeScorecard {
	out := ArchetypeScorecard{
		OwnerLogins:     b.ownerLogins,
		OwnerChallenged: b.ownerChallenged,
		OwnerBlocked:    b.ownerBlocked,
		OwnerChallengedShare: stats.Ratio(
			float64(b.ownerChallenged), float64(b.ownerLogins)),
		OwnerBlockedShare: stats.Ratio(
			float64(b.ownerBlocked), float64(b.ownerLogins)),
	}
	names := make([]string, 0, len(b.rows))
	for name := range b.rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := b.rows[name]
		row := ArchetypeOutcome{
			Archetype:  name,
			Accounts:   len(r.accts),
			Attempts:   r.attempts,
			Logins:     r.logins,
			Challenged: r.challenged,
			Blocked:    r.blocked,
		}
		var ttds []time.Duration
		for _, a := range r.accts {
			if a.hasDetect {
				row.Detected++
				ttds = append(ttds, a.detected.Sub(a.first))
			}
		}
		row.Recall = stats.Ratio(float64(row.Detected), float64(row.Accounts))
		row.MedianTTD = medianDuration(ttds)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// medianDuration is the exact median (mean of the middle pair when even).
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	mid := len(ds) / 2
	if len(ds)%2 == 1 {
		return ds[mid]
	}
	return (ds[mid-1] + ds[mid]) / 2
}
