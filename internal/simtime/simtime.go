// Package simtime provides the discrete-event simulation clock used by the
// whole study. All subsystems observe time exclusively through a *Clock so
// that a simulated multi-year measurement campaign runs in milliseconds and
// is perfectly reproducible.
//
// The scheduler is a value-typed 4-ary min-heap keyed on int64 UnixNanos
// with a deterministic tie-break: events scheduled for the same instant
// fire in the order they were scheduled. Handlers may schedule further
// events, including at the current instant. The heap's entries hold no
// pointers: each names a slot in a side table that keeps the handler and
// its exact time.Time, and slots are recycled through a free list. Sifting
// the heap therefore moves 24 pointer-free bytes per step and takes no GC
// write barrier, and nothing is allocated per event, because
// Schedule+dispatch is the innermost loop of every world simulation.
package simtime

import (
	"fmt"
	"slices"
	"time"
)

// Epoch is the default start of simulated time. The study spans 2011–2014,
// so the default world starts in 2011.
var Epoch = time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)

// Clock is a simulated clock combined with an event scheduler. The zero
// value is not usable; call NewClock.
type Clock struct {
	now      time.Time
	nowNanos int64
	queue    []entry  // the heap of pending events
	slots    []slot   // each pending event's handler and instant
	free     []uint32 // indexes of slots no pending event holds
	seq      uint64
	// running guards against re-entrant Run calls from handlers.
	running bool
}

// entry is one pending event in the heap. The key is the instant as
// UnixNanos (every simulated instant in this codebase is within the
// int64-nanosecond range, 1678–2262) with the scheduling sequence number
// breaking ties FIFO. The handler and the original time.Time wait in
// slots[slot], so the entry itself holds no pointers.
type entry struct {
	at   int64
	seq  uint64
	slot uint32
}

// slot is where a pending event's handler waits. It keeps the original
// time.Time so the clock observed by handlers is bit-identical to what the
// scheduler was given: reconstructing it from nanos would lose its
// Location and monotonic reading, which report byte-determinism depends
// on. Dispatch clears the slot and frees it for the next Schedule.
type slot struct {
	when time.Time
	fn   func()
}

// NewClock returns a clock set to start.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start, nowNanos: start.UnixNano()}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Time { return c.now }

// Len reports the number of pending events.
func (c *Clock) Len() int { return len(c.queue) }

// Reserve grows the pending-event queue and its slot table to hold at
// least n events without further allocation. Worlds that know their
// expected event volume call it once at assembly so steady-state
// scheduling never reallocates.
func (c *Clock) Reserve(n int) {
	c.queue = slices.Grow(c.queue, max(n-len(c.queue), 0))
	c.slots = slices.Grow(c.slots, max(n-len(c.slots), 0))
	c.free = slices.Grow(c.free, max(n-len(c.free), 0))
}

// Schedule runs fn at the absolute instant at. Scheduling in the past is an
// error in the simulation logic, so it panics rather than silently
// reordering history.
func (c *Clock) Schedule(at time.Time, fn func()) {
	nanos := at.UnixNano()
	if nanos < c.nowNanos {
		panic(fmt.Sprintf("simtime: schedule at %s before now %s", at, c.now))
	}
	var i uint32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
		c.slots[i] = slot{when: at, fn: fn}
	} else {
		i = uint32(len(c.slots))
		c.slots = append(c.slots, slot{when: at, fn: fn})
	}
	c.seq++
	c.push(entry{at: nanos, seq: c.seq, slot: i})
}

// After runs fn after d has elapsed from the current instant.
func (c *Clock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.Schedule(c.now.Add(d), fn)
}

// Every schedules fn at each multiple of period until end (exclusive),
// starting one period from now. It is a convenience for periodic agents
// such as daily work schedules. Ticks land exactly on period multiples:
// each tick books the next relative to its own instant, not to whatever
// the clock reads when other events interleave.
func (c *Clock) Every(period time.Duration, end time.Time, fn func()) {
	if period <= 0 {
		panic("simtime: Every with non-positive period")
	}
	var tick func()
	tick = func() {
		fn()
		next := c.now.Add(period)
		if next.Before(end) {
			c.Schedule(next, tick)
		}
	}
	first := c.now.Add(period)
	if first.Before(end) {
		c.Schedule(first, tick)
	}
}

// RunUntil executes pending events in timestamp order until the queue is
// empty or the next event is at or after deadline. The clock is left at
// deadline (or at the last executed event if the queue drained early and
// deadline is zero). It returns the number of events executed.
func (c *Clock) RunUntil(deadline time.Time) int {
	if c.running {
		panic("simtime: re-entrant RunUntil from an event handler")
	}
	c.running = true
	defer func() { c.running = false }()

	limit := deadline.UnixNano()
	n := 0
	for len(c.queue) > 0 && c.queue[0].at < limit {
		c.dispatch()
		n++
	}
	if c.now.Before(deadline) {
		c.now = deadline
		c.nowNanos = limit
	}
	return n
}

// Drain executes every pending event regardless of timestamp. It returns
// the number of events executed. Handlers may keep scheduling; Drain stops
// only when the queue is empty, so unbounded periodic schedules must be
// bounded by the caller (Every takes an end time for this reason).
func (c *Clock) Drain() int {
	if c.running {
		panic("simtime: re-entrant Drain from an event handler")
	}
	c.running = true
	defer func() { c.running = false }()

	n := 0
	for len(c.queue) > 0 {
		c.dispatch()
		n++
	}
	return n
}

// Advance moves the clock forward by d, running any events that fall in
// the window.
func (c *Clock) Advance(d time.Duration) int {
	return c.RunUntil(c.now.Add(d))
}

// dispatch pops the earliest event, frees its slot, moves the clock to
// its instant and runs its handler.
func (c *Clock) dispatch() {
	e := c.pop()
	s := &c.slots[e.slot]
	fn := s.fn
	c.now = s.when
	c.nowNanos = e.at
	*s = slot{} // release the handler and its Location
	c.free = append(c.free, e.slot)
	fn()
}

// less orders entries by instant, then by scheduling order (FIFO within
// the same instant).
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is 4-ary: children of i are 4i+1..4i+4. Compared to a binary
// heap it halves the tree depth, trading slightly more comparisons per
// level for far fewer cache-missing levels — a win for the deep queues a
// large world carries.

// push appends e and sifts it up.
func (c *Clock) push(e entry) {
	q := append(c.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&q[i], &q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	c.queue = q
}

// pop removes and returns the minimum entry.
func (c *Clock) pop() entry {
	q := c.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	c.queue = q

	// Sift the relocated root down.
	i := 0
	for {
		child := i*4 + 1
		if child >= last {
			break
		}
		// Pick the smallest of up to four children.
		min := child
		hi := child + 4
		if hi > last {
			hi = last
		}
		for j := child + 1; j < hi; j++ {
			if less(&q[j], &q[min]) {
				min = j
			}
		}
		if !less(&q[min], &q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}
