package simtime

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	c := NewClock(Epoch)
	var got []int
	c.Schedule(Epoch.Add(3*time.Hour), func() { got = append(got, 3) })
	c.Schedule(Epoch.Add(1*time.Hour), func() { got = append(got, 1) })
	c.Schedule(Epoch.Add(2*time.Hour), func() { got = append(got, 2) })
	n := c.Drain()
	if n != 3 {
		t.Fatalf("Drain ran %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v, want [1 2 3]", got)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := NewClock(Epoch)
	at := Epoch.Add(time.Minute)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(at, func() { got = append(got, i) })
	}
	c.Drain()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	c := NewClock(Epoch)
	ran := 0
	c.Schedule(Epoch.Add(1*time.Hour), func() { ran++ })
	c.Schedule(Epoch.Add(5*time.Hour), func() { ran++ })
	n := c.RunUntil(Epoch.Add(2 * time.Hour))
	if n != 1 || ran != 1 {
		t.Fatalf("ran %d events before deadline, want 1", ran)
	}
	if !c.Now().Equal(Epoch.Add(2 * time.Hour)) {
		t.Fatalf("clock = %s, want deadline", c.Now())
	}
	if c.Len() != 1 {
		t.Fatalf("pending = %d, want 1", c.Len())
	}
}

func TestHandlersScheduleMore(t *testing.T) {
	c := NewClock(Epoch)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			c.After(time.Minute, chain)
		}
	}
	c.After(time.Minute, chain)
	c.Drain()
	if count != 5 {
		t.Fatalf("chained events = %d, want 5", count)
	}
	if want := Epoch.Add(5 * time.Minute); !c.Now().Equal(want) {
		t.Fatalf("clock = %s, want %s", c.Now(), want)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	c := NewClock(Epoch)
	c.RunUntil(Epoch.Add(time.Hour))
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.Schedule(Epoch, func() {})
}

func TestEvery(t *testing.T) {
	c := NewClock(Epoch)
	count := 0
	c.Every(time.Hour, Epoch.Add(5*time.Hour+time.Minute), func() { count++ })
	c.Drain()
	if count != 5 {
		t.Fatalf("periodic fired %d times, want 5", count)
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	c := NewClock(Epoch)
	ran := false
	c.After(-time.Hour, func() { ran = true })
	c.Drain()
	if !ran {
		t.Fatal("negative After never ran")
	}
	if !c.Now().Equal(Epoch) {
		t.Fatalf("clock moved to %s, want epoch", c.Now())
	}
}

func TestAdvance(t *testing.T) {
	c := NewClock(Epoch)
	ran := 0
	c.After(30*time.Minute, func() { ran++ })
	c.Advance(time.Hour)
	if ran != 1 {
		t.Fatalf("Advance ran %d, want 1", ran)
	}
	if !c.Now().Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("clock = %s", c.Now())
	}
}

// Same-instant FIFO must hold even when handlers re-schedule at the
// current instant while other same-instant events are still pending: a
// child scheduled from inside a handler fires after every event that was
// scheduled before it, because the tie-break is scheduling order, not
// insertion depth.
func TestSameInstantFIFOInterleavedRescheduling(t *testing.T) {
	c := NewClock(Epoch)
	at := Epoch.Add(time.Minute)
	var got []string
	c.Schedule(at, func() {
		got = append(got, "a")
		c.Schedule(at, func() { got = append(got, "a-child") })
	})
	c.Schedule(at, func() {
		got = append(got, "b")
		c.Schedule(at, func() { got = append(got, "b-child") })
	})
	c.Schedule(at, func() { got = append(got, "c") })
	c.Drain()
	want := []string{"a", "b", "c", "a-child", "b-child"}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// A stress variant: many same-instant events, each rescheduling one child
// at the same instant. All parents run before any child, both generations
// in scheduling order.
func TestSameInstantFIFOStress(t *testing.T) {
	c := NewClock(Epoch)
	at := Epoch.Add(time.Minute)
	const n = 500
	var got []int
	for i := 0; i < n; i++ {
		i := i
		c.Schedule(at, func() {
			got = append(got, i)
			c.Schedule(at, func() { got = append(got, n+i) })
		})
	}
	c.Drain()
	if len(got) != 2*n {
		t.Fatalf("ran %d events, want %d", len(got), 2*n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d fired out of order: got %d", i, v)
		}
	}
}

// Every must tick exactly on period multiples even when other events at
// off-grid instants interleave: each tick books the next from its own
// instant, so the grid never drifts.
func TestEveryTicksOnExactMultiples(t *testing.T) {
	c := NewClock(Epoch)
	var ticks []time.Time
	end := Epoch.Add(6*time.Hour + time.Nanosecond)
	c.Every(time.Hour, end, func() { ticks = append(ticks, c.Now()) })
	for i := 0; i < 40; i++ {
		c.Schedule(Epoch.Add(time.Duration(i)*7*time.Minute+13*time.Second), func() {})
	}
	c.Drain()
	if len(ticks) != 6 {
		t.Fatalf("ticked %d times, want 6", len(ticks))
	}
	for i, at := range ticks {
		want := Epoch.Add(time.Duration(i+1) * time.Hour)
		if !at.Equal(want) {
			t.Fatalf("tick %d at %s, want exactly %s", i, at, want)
		}
	}
}

// Scheduling at exactly the current instant is legal (the boundary of the
// in-the-past panic) and fires within the same drive call.
func TestScheduleAtNow(t *testing.T) {
	c := NewClock(Epoch)
	c.RunUntil(Epoch.Add(time.Hour))
	ran := false
	c.Schedule(c.Now(), func() { ran = true })
	c.Drain()
	if !ran {
		t.Fatal("event at the current instant never ran")
	}
}

// The in-the-past panic must also fire from handler context, where the
// clock has advanced past the caller's stale timestamp.
func TestSchedulePastPanicsFromHandler(t *testing.T) {
	c := NewClock(Epoch)
	stale := Epoch.Add(time.Minute)
	c.Schedule(Epoch.Add(time.Hour), func() {
		c.Schedule(stale, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past from a handler did not panic")
		}
	}()
	c.Drain()
}

// The scheduler itself must not allocate per event: pushes into a
// reserved queue and dispatches are alloc-free, so a world's allocation
// profile is its handlers' own, not the clock's.
func TestScheduleZeroAllocs(t *testing.T) {
	c := NewClock(Epoch)
	c.Reserve(16)
	fn := func() {}
	allocs := testing.AllocsPerRun(2000, func() {
		c.Schedule(c.Now().Add(time.Second), fn)
		c.Schedule(c.Now().Add(2*time.Second), fn)
		c.Advance(3 * time.Second)
	})
	if allocs != 0 {
		t.Fatalf("Schedule+RunUntil allocated %.2f times per run, want 0", allocs)
	}
}

func TestReserve(t *testing.T) {
	c := NewClock(Epoch)
	c.Schedule(Epoch.Add(time.Hour), func() {})
	c.Reserve(1000)
	if c.Len() != 1 {
		t.Fatalf("Reserve dropped pending events: len = %d", c.Len())
	}
	c.Reserve(10) // shrinking request is a no-op
	if got := c.Drain(); got != 1 {
		t.Fatalf("Drain ran %d events, want 1", got)
	}
}

// A handler observes exactly the time.Time it was scheduled at, Location
// included, although the heap keys on nanoseconds alone.
func TestNowKeepsScheduledLocation(t *testing.T) {
	c := NewClock(Epoch)
	zone := time.FixedZone("UTC+7", 7*60*60)
	at := Epoch.Add(time.Hour).In(zone)
	var got time.Time
	c.Schedule(at, func() { got = c.Now() })
	c.Drain()
	if got != at || c.Now() != at {
		t.Fatalf("Now() = %v in the handler, %v after, want %v (==, same Location)", got, c.Now(), at)
	}
	if got.Location() != zone {
		t.Fatalf("Now() is in %v, want %v", got.Location(), zone)
	}
}

// Same-instant FIFO holds while freed slots are reused: every handler
// frees its slot as it runs, so children booked at the current instant
// take the slots of events that already ran, and must still fire after
// every event scheduled before them.
func TestSameInstantFIFOReusesFreedSlots(t *testing.T) {
	c := NewClock(Epoch)
	at := Epoch.Add(time.Minute)
	var got []int
	const n = 64
	for i := 0; i < n; i++ {
		i := i
		c.Schedule(at, func() {
			got = append(got, i)
			if i%2 == 0 {
				c.Schedule(at, func() { got = append(got, n+i/2) })
			}
		})
	}
	slots := len(c.slots)
	c.Drain()
	if len(c.slots) != slots {
		t.Fatalf("slot table grew from %d to %d; children should reuse freed slots", slots, len(c.slots))
	}
	if len(got) != n+n/2 {
		t.Fatalf("ran %d events, want %d", len(got), n+n/2)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d fired out of order: got %d", i, v)
		}
	}
	for i, s := range c.slots {
		if s.fn != nil {
			t.Fatalf("slot %d still holds a handler after dispatch", i)
		}
	}
}

// A heap entry holds no pointers, so sifting it takes no GC write barrier.
func TestEntryLayoutFence(t *testing.T) {
	if typ := reflect.TypeOf(entry{}); hasPointers(typ) {
		t.Fatalf("%v holds a pointer", typ)
	}
}

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}
