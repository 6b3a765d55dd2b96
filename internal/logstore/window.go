package logstore

// window is the one ordered pipeline under every logstore job that runs
// off the calling goroutine: segment writes, segment reads and NDJSON
// batch decode. Each job runs on a goroutine of its own, at most k at once
// (k below 1 means 1), and results come back in the order the jobs were
// added, on the caller's goroutine. A caller that stops taking results
// leaves the started jobs to finish; their results are dropped.
type window[T any] struct {
	k int
	// busy carries one result per job in flight, oldest first. Each
	// channel has room for its result, so a job never waits on the caller.
	busy []chan T
}

func newWindow[T any](k int) *window[T] {
	return &window[T]{k: max(1, k)}
}

// add starts job. When k jobs are already in flight it first waits for
// the oldest and returns its result with ok true.
func (w *window[T]) add(job func() T) (oldest T, ok bool) {
	if len(w.busy) == w.k {
		oldest, ok = w.next()
	}
	c := make(chan T, 1)
	go func() { c <- job() }()
	w.busy = append(w.busy, c)
	return oldest, ok
}

// next waits for the oldest job in flight and returns its result; ok is
// false when no job is in flight.
func (w *window[T]) next() (oldest T, ok bool) {
	if len(w.busy) == 0 {
		return oldest, false
	}
	c := w.busy[0]
	w.busy = w.busy[1:]
	return <-c, true
}
