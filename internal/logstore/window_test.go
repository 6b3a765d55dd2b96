package logstore

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// The window hands results back in add order, whatever order the jobs
// finish in, and never runs more than k jobs at once. Job i of 40 sleeps
// less the later it was added, so at k > 1 later jobs finish first.
func TestWindowOrderAndBound(t *testing.T) {
	const jobs = 40
	for _, k := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			var running atomic.Int32
			w := newWindow[int](k)
			if _, ok := w.next(); ok {
				t.Fatal("next on an empty window reported a result")
			}
			var got []int
			for i := 0; i < jobs; i++ {
				r, ok := w.add(func() int {
					if n := running.Add(1); n > int32(k) {
						t.Errorf("%d jobs running at once, want at most %d", n, k)
					}
					time.Sleep(time.Duration(jobs-i) * 100 * time.Microsecond)
					running.Add(-1)
					return i
				})
				if ok != (i >= k) {
					t.Fatalf("add %d returned ok=%v with %d jobs in flight before it", i, ok, min(i, k))
				}
				if ok {
					got = append(got, r)
				}
			}
			for r, ok := w.next(); ok; r, ok = w.next() {
				got = append(got, r)
			}
			if _, ok := w.next(); ok {
				t.Fatal("next on a drained window reported a result")
			}
			if len(got) != jobs {
				t.Fatalf("%d results, want %d", len(got), jobs)
			}
			for i, r := range got {
				if r != i {
					t.Fatalf("result %d is job %d's: results out of add order %v", i, r, got)
				}
			}
		})
	}
	if w := newWindow[int](0); w.k != 1 {
		t.Fatalf("a window of k=0 runs %d jobs at once, want 1", w.k)
	}
}
