package logstore

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"manualhijack/internal/event"
)

// TestScanWorkersMatchSequential hammers the decode-ahead scan: at every
// worker depth, four concurrent full scans over many small segments (each
// scan's decodes racing its own fold and the other scans) must deliver
// segments strictly in order and the exact record sequence of the
// monolithic store. Run under -race this also proves the ordered window's
// handoff between its decode goroutines and the scanning goroutine.
func TestScanWorkersMatchSequential(t *testing.T) {
	const records = 900
	mono := mixedStore(records)
	mono.Seal()
	var want []event.Event
	mono.Scan(func(e event.Event) { want = append(want, e) })

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := spilledMixedStore(t, records, SpillConfig{
				SegmentRecords: 61,
				ScanWorkers:    workers,
			})
			s.Seal()
			if s.SegmentCount() < 8 {
				t.Fatalf("only %d segments; the hammer needs many", s.SegmentCount())
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lastSeg := -1
					got := make([]event.Event, 0, len(want))
					s.ScanSegments(func(seg int, events []event.Event) {
						if seg <= lastSeg {
							t.Errorf("segment %d delivered after %d", seg, lastSeg)
						}
						lastSeg = seg
						got = append(got, events...)
					})
					if !reflect.DeepEqual(got, want) {
						t.Errorf("decode-ahead scan diverged from monolithic (%d vs %d records)",
							len(got), len(want))
					}
				}()
			}
			wg.Wait()
		})
	}
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// A finished scan keeps no decoded segment: at decode-ahead depths 1 and
// 2, a full Scan of a sealed nine-segment store may leave it retaining
// less than a quarter of one decoded segment.
func TestScanRetainsNoSegment(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := spilledMixedStore(t, 60000, SpillConfig{SegmentRecords: 10000, ScanWorkers: workers})
			s.Seal()
			if s.SegmentCount() != 9 {
				t.Fatalf("%d segments, want 9", s.SegmentCount())
			}
			base := liveHeap()
			seg, err := readSegment(s.spill.cfg.Dir, s.spill.segs[0])
			if err != nil {
				t.Fatal(err)
			}
			one := liveHeap() - base
			runtime.KeepAlive(seg)

			before := liveHeap()
			n := 0
			s.Scan(func(event.Event) { n++ })
			retained := liveHeap() - before
			runtime.KeepAlive(s)
			if n != s.Len() {
				t.Fatalf("scan visited %d records, want %d", n, s.Len())
			}
			t.Logf("one decoded segment %d bytes; a finished scan retains %d", one, retained)
			if retained >= one/4 {
				t.Fatalf("a finished scan retains %d bytes, a quarter of one decoded segment is %d", retained, one/4)
			}
		})
	}
}

// TestSpillAppendSteadyStateAllocs is the async-spill allocation fence:
// once the writer pool's free list is warm, Append inside a segment must
// not allocate at all — the filled-segment handoff recycles backing
// arrays, so the steady-state append path costs a slice store and a tally.
func TestSpillAppendSteadyStateAllocs(t *testing.T) {
	const threshold = 5000
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: t.TempDir(), SegmentRecords: threshold}); err != nil {
		t.Fatal(err)
	}
	at := t0
	next := func() event.Event {
		at = at.Add(time.Second)
		return login(at, 1, event.ActorOwner)
	}
	// Warm up: four full segments grow the backing array to the segment
	// size and stock the free list.
	for i := 0; i < 4*threshold; i++ {
		s.Append(next())
	}
	// Wait for the writer pool to drain so background encode/write
	// allocations cannot pollute the measurement.
	sp := s.spill
	deadline := time.Now().Add(10 * time.Second)
	for {
		sp.resMu.Lock()
		done := len(sp.results)
		sp.resMu.Unlock()
		if done == sp.seq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer pool did not drain: %d of %d segments written", done, sp.seq)
		}
		time.Sleep(time.Millisecond)
	}

	// 3000 runs (+1 warm-up) stay inside the active segment: no seal, no
	// slice growth, so the only legal answer is zero. The record is boxed
	// once outside the loop — equal-time appends are legal, so one record
	// serves every run without a per-run interface allocation.
	var e event.Event = login(at.Add(time.Second), 1, event.ActorOwner)
	allocs := testing.AllocsPerRun(3000, func() { s.Append(e) })
	if allocs != 0 {
		t.Fatalf("steady-state spill Append allocated %.3f times per record, want 0", allocs)
	}
	s.Seal()
}

// TestSpillWriteErrorSurfacesSegment pins the failure contract: a
// background segment write error poisons the log and panics at the next
// append, naming the failed segment file and its 1-based index.
func TestSpillWriteErrorSurfacesSegment(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: dir, SegmentRecords: 10}); err != nil {
		t.Fatal(err)
	}
	// Yank the directory out from under the writer pool: the first
	// segment's os.Create must fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Append(login(t0.Add(time.Duration(i)*time.Second), 1, event.ActorOwner))
	}
	sp := s.spill
	deadline := time.Now().Add(10 * time.Second)
	for !sp.failed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("writer never reported the failure")
		}
		time.Sleep(time.Millisecond)
	}
	msg := func() (m string) {
		defer func() {
			if r := recover(); r != nil {
				m = fmt.Sprint(r)
			}
		}()
		s.Append(login(t0.Add(time.Minute), 1, event.ActorOwner))
		return ""
	}()
	if msg == "" {
		t.Fatal("append after spill failure did not panic")
	}
	for _, want := range []string{"logstore: spill:", "seg-000001", "(index 1)"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name %q", msg, want)
		}
	}
}
