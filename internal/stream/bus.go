package stream

import (
	"sync"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
)

// Bus fans one event feed out to a set of registry builders, serializing
// everything behind a mutex so single-goroutine builders are safe under
// concurrent publishers (riskd's request lanes) and concurrent snapshot
// readers (/v1/streamz).
//
// The bus enforces the same time-order invariant the logstore does, but
// where an out-of-order append into the store is a panic (a simulation bug
// corrupting the frozen log), an out-of-order arrival here is merely
// dropped and counted: live feeds assembled from concurrent request lanes
// can interleave non-monotonically without anything being wrong, and the
// time-windowed analyses (first-hit anchors, day buckets) only stay exact
// over an ordered feed. Equal timestamps are accepted — the simulation
// batches many events on one clock tick.
type Bus struct {
	mu       sync.Mutex
	builders []core.StreamAnalysis
	last     time.Time
	// haveLast distinguishes "no events yet" from a first event at the
	// zero time.
	haveLast          bool
	observed, dropped int64
}

// NewBus returns a bus feeding the given builders (see DefaultSuite).
func NewBus(builders ...core.StreamAnalysis) *Bus {
	return &Bus{builders: builders}
}

// Publish offers one event to every analysis. It reports whether the event
// was accepted; events timestamped before an already-accepted event are
// dropped (and counted in the snapshot's events_dropped).
func (b *Bus) Publish(e event.Event) bool {
	when := e.When()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.haveLast && when.Before(b.last) {
		b.dropped++
		return false
	}
	b.last = when
	b.haveLast = true
	b.observed++
	for _, a := range b.builders {
		a.Observe(e)
	}
	return true
}

// Replay publishes every record of a store in log order — the harness that
// runs a sealed dump through the streaming path. It returns the number of
// records published. Stores are time-ordered by construction, so nothing
// is dropped unless the bus already saw later events.
func (b *Bus) Replay(s *logstore.Store) int {
	n := 0
	s.Scan(func(e event.Event) {
		if b.Publish(e) {
			n++
		}
	})
	return n
}

// Snapshot returns a point-in-time report across all analyses: each
// builder finalizes into a scratch study report, whose live fields
// FromStudy copies out. It is safe to call concurrently with Publish; the
// report is consistent (no event is half-applied across analyses).
func (b *Bus) Snapshot() Report {
	b.mu.Lock()
	defer b.mu.Unlock()
	var study core.StudyReport
	for _, a := range b.builders {
		a.Finalize(&study)
	}
	r := FromStudy(&study)
	r.EventsObserved = b.observed
	r.EventsDropped = b.dropped
	if b.haveLast {
		r.LastEvent = b.last.UTC().Format(time.RFC3339Nano)
	}
	return r
}
