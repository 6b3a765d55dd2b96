// Package logstore is the append-only event log the simulated services
// write to and the measurement pipeline reads from.
//
// The paper notes that its 14 datasets were aggregated from system logs
// "via map-reduce computation" and that, for privacy and storage reasons,
// many authentication-related logs are sanitized or erased within a short
// time window. Both properties are modeled here: the analysis builders'
// per-segment shards and ordered merges (core.MergeableAnalysis) are the
// map-reduce over a sealed store, and Retention applies kind-scoped
// erasure windows.
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
//   - Sealed phase. Seal freezes the log, builds a per-kind partition
//     index, and publishes the frozen state with an atomic release-store.
//     From then on any number of goroutines may read concurrently —
//     Select/SelectWhere touch only the matching kind partition, Between
//     binary-searches the time-ordered log, and KindCounts answers from
//     the index without visiting records. Observing Sealed() == true is
//     the cross-goroutine handoff: it happens-after everything the writer
//     did.
//
// Misuse that is cheap to detect panics: appending to a sealed store, and
// out-of-order appends. Cross-goroutine reads of an unsealed store cannot
// be detected cheaply and are simply illegal — the race detector will
// flag them (TestSealPublishHandoff pins the supported pattern).
//
// Sealing is what makes the study's analysis fan-out cheap: dozens of
// concurrent read-only analyses over the same sealed store, each
// proportional to the records it actually uses.
package logstore

import (
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
	// and byKind to readers that load-acquire it.
	sealed atomic.Bool
	// byKind is the per-kind partition index built by Seal, each
	// partition preserving log order. All partitions share one backing
	// array, allocated exactly once at its final size. Nil on a
	// segmented store, whose reads stream from disk instead.
	byKind map[event.Kind][]event.Event

	// spill, when non-nil, puts the store in segmented spill-to-disk
	// mode (see segment.go): events holds only the active segment, and
	// sealed reads stream spilled segments through a bounded cache.
	spill *spillState
}

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
	s.events = append(s.events, e)
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
		if sp.shouldSeal(len(s.events)) {
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

// Seal freezes the store, builds the kind index, and publishes both to
// concurrent readers. Further appends panic; reads become index-backed
// and safe to run from any goroutine. Sealing an already-sealed store is
// a no-op. World.Run seals its log when the simulation window ends.
func (s *Store) Seal() {
	if s.sealed.Load() {
		return
	}
	if s.spill != nil {
		// Segmented path: flush the final partial segment and write the
		// manifest instead of building an in-RAM kind index — the
		// per-segment kind tallies play that role.
		if err := s.finishSpill(); err != nil {
			panic("logstore: spill: " + err.Error())
		}
	} else {
		s.rebuildIndex()
	}
	s.sealed.Store(true)
}

// Sealed reports whether the store has been frozen. A true result is an
// acquire-load: it orders everything the sealing goroutine wrote before
// the reader's subsequent reads.
func (s *Store) Sealed() bool {
	return s.sealed.Load()
}

// rebuildIndex recomputes the per-kind partitions from the event slice in
// two passes: count per kind, then carve exact-size partitions out of one
// shared backing array. Appends are time-ordered, so filtering by kind
// preserves order within each partition. The three-index sub-slices make
// partition overflow impossible by construction (an append past a
// partition's cap would allocate away from the backing array rather than
// clobber its neighbor).
func (s *Store) rebuildIndex() {
	counts := make(map[event.Kind]int, 32)
	for _, e := range s.events {
		counts[e.EventKind()]++
	}
	backing := make([]event.Event, len(s.events))
	idx := make(map[event.Kind][]event.Event, len(counts))
	off := 0
	for k, n := range counts {
		idx[k] = backing[off : off : off+n]
		off += n
	}
	for _, e := range s.events {
		k := e.EventKind()
		idx[k] = append(idx[k], e)
	}
	s.byKind = idx
}

// Len returns the number of records, spilled segments included.
func (s *Store) Len() int {
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
	if sp := s.spill; sp != nil {
		if !s.sealed.Load() {
			// Records before the active segment are already on disk; a
			// build-phase scan would silently see a suffix of the log.
			panic("logstore: Scan on a spilling store before Seal")
		}
		sp.scan(fn)
		return
	}
	for _, e := range s.events {
		fn(e)
	}
}

// ScanSegments calls fn once per storage unit, in log order, with the
// unit's index and decoded records — segments for a segmented store
// (decode-ahead applies, like Scan), or the whole log as unit 0 for an
// in-RAM store. Callers must treat the slice as read-only and not retain
// it past the callback: a segmented store recycles it through the cache.
// This is the hook for per-segment parallel reduction — fold each
// delivered unit into a shard, merge shards in unit order.
func (s *Store) ScanSegments(fn func(seg int, events []event.Event)) {
	if sp := s.spill; sp != nil {
		if !s.sealed.Load() {
			panic("logstore: ScanSegments on a spilling store before Seal")
		}
		sp.scanSegments(fn)
		return
	}
	fn(0, s.events)
}

// snapshot returns the current record slice. Callers must treat it as
// read-only. Segmented stores have no whole-log slice to hand out.
func (s *Store) snapshot() []event.Event {
	if s.spill != nil {
		panic("logstore: snapshot of a segmented store")
	}
	return s.events
}

// kindPartition returns the sealed index partition for k. ok is false on
// an unsealed store, where callers must fall back to scanning.
func (s *Store) kindPartition(k event.Kind) (part []event.Event, ok bool) {
	if !s.sealed.Load() {
		return nil, false
	}
	return s.byKind[k], true
}

// Select returns every record of concrete type T, in order. On a sealed
// store only the matching kind partition is visited.
func Select[T event.Event](s *Store) []T {
	var out []T
	forEachOfType(s, func(t T) { out = append(out, t) })
	return out
}

// SelectWhere returns every record of type T matching pred, in order.
func SelectWhere[T event.Event](s *Store, pred func(T) bool) []T {
	var out []T
	forEachOfType(s, func(t T) {
		if pred(t) {
			out = append(out, t)
		}
	})
	return out
}

// forEachOfType visits every record of concrete type T in log order,
// routing through the kind index when the store is sealed and T is a
// registered record type.
func forEachOfType[T event.Event](s *Store, fn func(T)) {
	if k, ok := event.KindFor[T](); ok {
		if s.Segmented() {
			// Per-segment kind tallies replace the in-RAM index: segments
			// holding none of k are skipped without touching disk.
			s.spill.scanKind(k, func(e event.Event) {
				if t, ok := e.(T); ok {
					fn(t)
				}
			})
			return
		}
		if part, sealed := s.kindPartition(k); sealed {
			for _, e := range part {
				if t, ok := e.(T); ok {
					fn(t)
				}
			}
			return
		}
	}
	s.Scan(func(e event.Event) {
		if t, ok := e.(T); ok {
			fn(t)
		}
	})
}

// Between returns records with from <= When < to, preserving order. On a
// sealed store the window is located by binary search and the returned
// slice aliases the frozen log; callers must treat it as read-only.
func (s *Store) Between(from, to time.Time) []event.Event {
	if s.Segmented() {
		return s.spill.between(from, to)
	}
	events := s.events
	if s.sealed.Load() {
		lo := sort.Search(len(events), func(i int) bool { return !events[i].When().Before(from) })
		hi := sort.Search(len(events), func(i int) bool { return !events[i].When().Before(to) })
		if lo >= hi {
			return nil
		}
		// Full-cap slice so an appending caller cannot clobber the log.
		return events[lo:hi:hi]
	}
	var out []event.Event
	for _, e := range events {
		w := e.When()
		if !w.Before(from) && w.Before(to) {
			out = append(out, e)
		}
	}
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
// store's owning goroutine and must not run concurrently with reads. On a
// sealed store it rebuilds the kind index so partitions never serve
// erased records.
func (s *Store) Sanitize(now time.Time, policy Retention) int {
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
	if s.sealed.Load() && erased > 0 {
		s.rebuildIndex()
	}
	return erased
}

// KindCounts tallies records by kind (an aggregate useful for log-volume
// sanity checks and the hijacksim binary). A sealed store answers from
// the kind index in O(kinds); an unsealed one scans.
func (s *Store) KindCounts() map[event.Kind]int {
	if sp := s.spill; sp != nil {
		// No disk reads in either phase. Sealed stores answer from the
		// per-segment manifest tallies; a still-building store sums the
		// running tally of everything handed to the writer pool (which
		// may not have finished writing) plus the active segment.
		// Build-phase calls follow the single-writer contract.
		out := make(map[event.Kind]int, 32)
		if sp.finished {
			for _, seg := range sp.segs {
				for k, n := range seg.Kinds {
					out[k] += n
				}
			}
		} else {
			for k, n := range sp.buildKinds {
				out[k] += n
			}
		}
		for _, e := range s.events {
			out[e.EventKind()]++
		}
		return out
	}
	if s.sealed.Load() {
		out := make(map[event.Kind]int, len(s.byKind))
		for k, part := range s.byKind {
			out[k] = len(part)
		}
		return out
	}
	out := make(map[event.Kind]int)
	for _, e := range s.events {
		out[e.EventKind()]++
	}
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
