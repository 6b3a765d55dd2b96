package logstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
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
			seg := readSegment(s.spill.cfg.Dir, s.spill.segs[0], false)
			if seg.err != nil {
				t.Fatal(seg.err)
			}
			one := liveHeap() - base
			runtime.KeepAlive(seg.events)

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
// once the writes have handed their arrays back, Append inside a segment
// must not allocate at all — the filled-segment handoff recycles backing
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
	// size and recycle it.
	for i := 0; i < 4*threshold; i++ {
		s.Append(next())
	}
	// Wait for the writes in flight so background encode/write
	// allocations cannot pollute the measurement.
	if err := s.spill.drain(); err != nil {
		t.Fatal(err)
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
	// Yank the directory out from under the writes: the first segment's
	// os.Create must fail.
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

// panicOf runs fn and returns what it panicked with, or "" if it did not.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// A write that fails mid-spill, with later writes in flight, fails the
// spill naming the first failed segment in segment order, and leaves no
// manifest: the partial directory never opens as a complete log. Segments
// 2 and 4 cannot be created, because directories hold their names; Append
// may panic as soon as a failed write reports, and Seal must.
func TestSpillWriteFaultLeavesNoManifest(t *testing.T) {
	dir := t.TempDir()
	blockers := []string{filepath.Join(dir, "seg-000002.ndjson"), filepath.Join(dir, "seg-000004.ndjson")}
	for _, b := range blockers {
		if err := os.Mkdir(b, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: dir, SegmentRecords: 50, Writers: 3}); err != nil {
		t.Fatal(err)
	}
	const n = 300
	var panics []string
	for i := 0; i < n; i++ {
		e := login(t0.Add(time.Duration(i)*time.Second), identity.AccountID(i+1), event.ActorOwner)
		if msg := panicOf(func() { s.Append(e) }); msg != "" && len(panics) == 0 {
			panics = append(panics, msg)
		}
	}
	sealPanic := panicOf(s.Seal)
	if sealPanic == "" {
		t.Fatal("Seal of a spill with a failed write did not panic")
	}
	for _, msg := range append(panics, sealPanic) {
		for _, want := range []string{"logstore: spill:", "seg-000002.ndjson", "(index 2)"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("a failed spill left a manifest (stat err %v)", err)
	}

	for _, b := range blockers {
		if err := os.Remove(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := OpenSegmentDir(dir, ReadOptions{}); err == nil || !strings.Contains(err.Error(), ManifestName) {
		t.Fatalf("strict open of the failed spill: err = %v, want one naming %s", err, ManifestName)
	}
	_, st, err := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.ManifestIgnored == "" || st.Records >= n {
		t.Fatalf("SkipCorrupt open: ManifestIgnored %q, %d records; want a reason and fewer than the %d appended",
			st.ManifestIgnored, st.Records, n)
	}
}
