// Package logstore is the append-only event log the simulated services
// write to and the measurement pipeline reads from.
//
// The paper notes that its 14 datasets were aggregated from system logs
// "via map-reduce computation" and that, for privacy and storage reasons,
// many authentication-related logs are sanitized or erased within a short
// time window. Both properties are modeled here: the analysis builders'
// per-segment shards and ordered merges (core.MergeableAnalysis) are the
// map-reduce over a sealed store, and Retention applies kind-scoped
// erasure windows. A store may also keep nothing at all: Discard makes it
// write-only, so a writer whose readers all fold from the tap (the study's
// era worlds) pays for none of its records.
//
// # Store lifecycle: single-writer build, sealed concurrent reads
//
// A store has exactly two phases, and the synchronization contract differs
// between them:
//
//   - Build phase. The store is owned by a single goroutine — the world's
//     simulation loop, which is sequential by construction. Appends (and
//     any interleaved reads or Sanitize calls) must all come from that
//     owner; nothing is locked on this path, which is what makes Append a
//     plain bounds-check-and-store.
//   - Sealed phase. Seal freezes the log and publishes it with an atomic
//     release-store. From then on any number of goroutines may read
//     concurrently. A sealed log is just its records: every read (Scan,
//     ScanSegments, Select, KindCounts) is an ordered scan, which is all
//     the map-reduce analyses need. Observing Sealed() == true is the
//     cross-goroutine handoff: it happens-after everything the writer did.
//
// Misuse that is cheap to detect panics: appending to a sealed store, and
// out-of-order appends. Cross-goroutine reads of an unsealed store cannot
// be detected cheaply and are simply illegal — the race detector will
// flag them (TestSealPublishHandoff pins the supported pattern).
package logstore

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"manualhijack/internal/event"
)

// Store is an append-only event log. Appends must be time-ordered (the
// simulation clock guarantees this) and single-goroutine; reads may happen
// concurrently only after Seal. See the package comment for the full
// two-phase contract.
type Store struct {
	// Build-phase state, owned by the writer goroutine until Seal.
	events []event.Event
	// last is the most recent append's timestamp, cached so the
	// time-order check costs one When() call per record instead of
	// re-extracting the predecessor's.
	last time.Time
	// tap, when set, observes every accepted append synchronously on the
	// writer goroutine. Build-phase state like events: it is never touched
	// after Seal, because sealed stores reject appends.
	tap func(event.Event)

	// sealed is the phase switch: Seal's release-store publishes events
	// to readers that load-acquire it.
	sealed atomic.Bool

	// spill, when non-nil, puts the store in segmented spill-to-disk
	// mode (see segment.go): events holds only the active segment, and
	// sealed reads stream spilled segments through a bounded cache.
	spill *spillState

	// writeOnly, set by Discard, makes Append count records instead of
	// keeping them; count is that tally.
	writeOnly bool
	count     int
}

// writeOnlyRead is the panic of every read of a write-only store.
const writeOnlyRead = "logstore: read of a write-only store (Discard keeps no records)"

// New returns an empty store.
func New() *Store { return &Store{} }

// Reserve grows the record slice to hold at least n records without
// further allocation. Worlds that can estimate their event volume call it
// once at assembly, so steady-state appends never trigger a growth copy.
// Reserve follows the build-phase contract: writer goroutine only.
//
// A spilling store caps the reservation at one segment's capacity: the
// whole point of spill mode is that the in-RAM slice never outgrows a
// segment, so a whole-world estimate would defeat the memory bound.
func (s *Store) Reserve(n int) {
	if s.writeOnly {
		return
	}
	if sp := s.spill; sp != nil && n > sp.cfg.SegmentRecords {
		n = sp.cfg.SegmentRecords
	}
	if n <= cap(s.events) {
		return
	}
	grown := make([]event.Event, len(s.events), n)
	copy(grown, s.events)
	s.events = grown
}

// Append adds a record. Records must arrive in non-decreasing time order;
// out-of-order appends panic because they indicate a simulation bug that
// would silently corrupt every time-windowed analysis. Appending to a
// sealed store panics for the same reason: the analysis phase relies on
// the log being frozen. Append is the single-writer hot path — no lock is
// taken; see the package comment.
func (s *Store) Append(e event.Event) {
	if s.sealed.Load() {
		panic("logstore: append to sealed store: " + string(e.EventKind()))
	}
	when := e.When()
	if when.Before(s.last) {
		panic("logstore: out-of-order append: " + string(e.EventKind()) +
			" at " + when.String() + " after " + s.last.String())
	}
	s.last = when
	if s.writeOnly {
		s.count++
	} else {
		s.events = append(s.events, e)
	}
	if s.tap != nil {
		s.tap(e)
	}
	if sp := s.spill; sp != nil {
		// Spill failures poison the log (a segment gap would corrupt
		// every analysis), so they surface like the other invariant
		// violations on this path — at the next append after a writer
		// reports, not segments later.
		if sp.failed.Load() {
			panic("logstore: spill: " + sp.firstErr().Error())
		}
		if len(s.events) >= sp.cfg.SegmentRecords {
			if err := s.spillActive(); err != nil {
				panic("logstore: spill: " + err.Error())
			}
		}
	}
}

// SetTap registers fn to observe every subsequent Append, synchronously on
// the writer goroutine, after the record is stored — the live feed for the
// streaming analyses. The tap rides the build phase and does not alter the
// two-phase contract: it sees exactly the records that pass Append's order
// and seal checks, and never fires after Seal (sealed stores reject
// appends). A nil fn removes the tap. Setting a non-nil tap on a sealed
// store panics, since nothing could ever fire it.
func (s *Store) SetTap(fn func(event.Event)) {
	if fn != nil && s.sealed.Load() {
		panic("logstore: SetTap on sealed store")
	}
	s.tap = fn
}

// Discard switches an empty, unsealed, non-spilling store into write-only
// mode, for a writer whose records are all consumed through the tap:
// Append keeps its seal and time-order checks and its tap but only counts
// the record, Len returns that count, and the slice Reserve set aside is
// released (later Reserve calls do nothing). Every read — Scan,
// ScanSegments, Select, KindCounts, Sanitize, and so WriteNDJSON — panics
// naming the mode, and EnableSpill returns an error. Discard on a store
// that is sealed, spilling or not empty panics. Discard follows the
// build-phase contract: writer goroutine only.
func (s *Store) Discard() {
	switch {
	case s.sealed.Load():
		panic("logstore: Discard on sealed store")
	case s.spill != nil:
		panic("logstore: Discard on a spilling store")
	case s.Len() > 0:
		panic(fmt.Sprintf("logstore: Discard after %d appends (must precede the first)", s.Len()))
	}
	s.writeOnly = true
	s.events = nil
}

// Seal freezes the store and publishes it to concurrent readers. Further
// appends panic; reads become safe to run from any goroutine. A spilling
// store first flushes its final segment and writes its manifest. Sealing
// an already-sealed store is a no-op. World.Run seals its log when the
// simulation window ends.
func (s *Store) Seal() {
	if s.sealed.Load() {
		return
	}
	if s.spill != nil {
		if err := s.finishSpill(); err != nil {
			panic("logstore: spill: " + err.Error())
		}
	}
	s.sealed.Store(true)
}

// Sealed reports whether the store has been frozen. A true result is an
// acquire-load: it orders everything the sealing goroutine wrote before
// the reader's subsequent reads.
func (s *Store) Sealed() bool {
	return s.sealed.Load()
}

// Len returns the number of records, spilled segments included.
func (s *Store) Len() int {
	if s.writeOnly {
		return s.count
	}
	if sp := s.spill; sp != nil {
		return sp.spilled + len(s.events)
	}
	return len(s.events)
}

// Scan calls fn for every record in order. On a segmented store the
// spilled segments stream through the cache in time order (with the next
// segment prefetched), so the whole log is visited without ever being
// resident at once.
func (s *Store) Scan(fn func(event.Event)) {
	s.ScanSegments(func(_ int, events []event.Event) {
		for _, e := range events {
			fn(e)
		}
	})
}

// ScanSegments calls fn once per storage unit, in log order, with the
// unit's index and decoded records — segments for a segmented store
// (decoded ScanWorkers ahead), or the whole log as unit 0 for an in-RAM
// store. Callers must treat the slice as read-only and not retain
// it past the callback: a segmented store recycles it through the cache.
// This is the hook for per-segment parallel reduction — fold each
// delivered unit into a shard, merge shards in unit order.
func (s *Store) ScanSegments(fn func(seg int, events []event.Event)) {
	if s.writeOnly {
		panic(writeOnlyRead)
	}
	if sp := s.spill; sp != nil {
		if !s.sealed.Load() {
			// Records before the active segment are already on disk; a
			// build-phase read would silently see a suffix of the log.
			panic("logstore: read of a spilling store before Seal")
		}
		sp.scanSegments(fn)
		return
	}
	fn(0, s.events)
}

// Select returns every record of concrete type T, in order.
func Select[T event.Event](s *Store) []T {
	return SelectWhere(s, func(T) bool { return true })
}

// SelectWhere returns every record of type T matching pred, in order.
func SelectWhere[T event.Event](s *Store, pred func(T) bool) []T {
	var out []T
	s.Scan(func(e event.Event) {
		if t, ok := e.(T); ok && pred(t) {
			out = append(out, t)
		}
	})
	return out
}

// Retention is a kind-scoped erasure policy: records of Kinds older than
// Window (relative to "now") are erased. A nil Kinds slice applies to all
// kinds.
type Retention struct {
	Kinds  []event.Kind
	Window time.Duration
}

// Sanitize erases records covered by the policy that are older than
// now-policy.Window. It returns the number of erased records. This models
// the short retention of authentication logs that forced the paper's
// authors to draw several datasets over only a few weeks. Sanitize is a
// writer-side operation in both phases: like Append it must come from the
// store's owning goroutine and must not run concurrently with reads.
func (s *Store) Sanitize(now time.Time, policy Retention) int {
	if s.writeOnly {
		panic(writeOnlyRead)
	}
	if s.spill != nil {
		// Spilled segments are immutable files; rewriting them to erase
		// records is not supported. Worlds with a retention policy must
		// stay in-RAM (Config validates this up front).
		panic("logstore: Sanitize is incompatible with spill-to-disk segments")
	}
	cutoff := now.Add(-policy.Window)
	// Build the kind set once instead of rescanning policy.Kinds per record.
	var kinds map[event.Kind]bool
	if policy.Kinds != nil {
		kinds = make(map[event.Kind]bool, len(policy.Kinds))
		for _, k := range policy.Kinds {
			kinds[k] = true
		}
	}
	kept := s.events[:0]
	erased := 0
	for _, e := range s.events {
		if e.When().Before(cutoff) && (kinds == nil || kinds[e.EventKind()]) {
			erased++
			continue
		}
		kept = append(kept, e)
	}
	// Zero the tail so erased records are actually unreachable.
	for i := len(kept); i < len(s.events); i++ {
		s.events[i] = nil
	}
	s.events = kept
	return erased
}

// KindCounts tallies records by kind (an aggregate useful for log-volume
// sanity checks and the hijacksim binary). A sealed segmented store
// answers from its manifest without reading a segment; any other store
// scans, so a spilling store must be sealed first, as for Scan.
func (s *Store) KindCounts() map[event.Kind]int {
	out := make(map[event.Kind]int, 32)
	if s.Segmented() {
		for _, seg := range s.spill.segs {
			for k, n := range seg.Kinds {
				out[k] += n
			}
		}
		return out
	}
	s.Scan(func(e event.Event) { out[e.EventKind()]++ })
	return out
}

// SortedKinds returns the kinds present in the store, sorted.
func (s *Store) SortedKinds() []event.Kind {
	counts := s.KindCounts()
	out := make([]event.Kind, 0, len(counts))
	for k := range counts {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
