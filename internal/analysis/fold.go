package analysis

import (
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
)

// Fold scans every record of s into b, in log order, and returns b: the
// whole-log form of any builder in this package, as in
// Fold(s, NewFigure7Builder()).Figure7().
func Fold[B interface{ Observe(event.Event) }](s *logstore.Store, b B) B {
	s.Scan(b.Observe)
	return b
}

// sampleSeed derives the deterministic sampling stream for a dataset.
func sampleSeed(id int) *randx.Rand {
	return randx.New(0xD5).Fork("dataset").Fork(string(rune('0' + id)))
}

// sampleN draws up to n elements without replacement using dataset id's
// deterministic sampling stream, so every feed of a builder — the study's
// tap, a scan of a finished log or the live stream bus — draws the same
// sample in the same order. items is never mutated, but when
// len(items) <= n it is returned as-is: treat the result as read-only.
func sampleN[T any](id int, items []T, n int) []T {
	if len(items) <= n {
		return items
	}
	return randx.Sample(sampleSeed(id), items, n)
}
