// Package stats provides the small statistical toolkit the measurement
// pipeline uses: counters with shares, percentiles/CDFs over samples,
// duration distributions, and time-bucketed series. Everything is plain
// data so analyses stay easy to test.
package stats

import (
	"math"
	"sort"
	"time"
)

// Counter tallies occurrences of string keys and reports shares. The zero
// value is ready to use.
type Counter struct {
	counts map[string]int
	total  int
}

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter) AddN(key string, n int) {
	if c.counts == nil {
		c.counts = make(map[string]int)
	}
	c.counts[key] += n
	c.total += n
}

// Merge folds other's counts into c, as when Figures 3 and 4 sum their
// sampled pages' counters. A Counter is insensitive to the order keys
// were added, so the result does not depend on the merge order.
func (c *Counter) Merge(other *Counter) {
	for k, n := range other.counts {
		c.AddN(k, n)
	}
}

// Total returns the sum of all counts.
func (c *Counter) Total() int { return c.total }

// Count returns the count for key.
func (c *Counter) Count(key string) int { return c.counts[key] }

// Share returns key's fraction of the total, or 0 if empty.
func (c *Counter) Share(key string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[key]) / float64(c.total)
}

// Entry is a key with its count and share.
type Entry struct {
	Key   string
	Count int
	Share float64
}

// Sorted returns all entries sorted by descending count, ties broken by key
// for determinism.
func (c *Counter) Sorted() []Entry {
	out := make([]Entry, 0, len(c.counts))
	for k, n := range c.counts {
		share := 0.0
		if c.total > 0 {
			share = float64(n) / float64(c.total)
		}
		out = append(out, Entry{Key: k, Count: n, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Top returns the top-k entries by count.
func (c *Counter) Top(k int) []Entry {
	s := c.Sorted()
	if k < len(s) {
		s = s[:k]
	}
	return s
}

// Keys returns the number of distinct keys.
func (c *Counter) Keys() int { return len(c.counts) }

// Sample accumulates float64 observations and answers distribution queries.
// The zero value is ready to use. Observations are kept in insertion order;
// order-statistic queries work on a separate lazily built sorted view, so
// calling Percentile/Min/Max never reorders what Values returns.
type Sample struct {
	xs     []float64 // raw observations, insertion order
	sorted []float64 // lazy sorted view; nil when stale
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = nil
}

// AddDuration appends a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Sum returns the observations' left-fold sum in insertion order, so the
// same observations added in the same order always give the same bits.
func (s *Sample) Sum() float64 {
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.xs))
}

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// sortedView returns the observations in ascending order without touching
// the insertion-ordered xs slice. Rebuilt only after an Add.
func (s *Sample) sortedView() []float64 {
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.xs...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	xs := s.sortedView()
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sortedView()[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	xs := s.sortedView()
	return xs[len(xs)-1]
}

// FracBelow returns the fraction of observations <= x (the empirical CDF
// evaluated at x).
func (s *Sample) FracBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	xs := s.sortedView()
	i := sort.SearchFloat64s(xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(xs))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X    float64
	Frac float64
}

// CDF returns the empirical CDF evaluated at n evenly spaced points between
// min and max.
func (s *Sample) CDF(n int) []CDFPoint {
	if len(s.xs) == 0 || n <= 0 {
		return nil
	}
	lo, hi := s.Min(), s.Max()
	out := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		x := lo
		if n > 1 {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		out = append(out, CDFPoint{X: x, Frac: s.FracBelow(x)})
	}
	return out
}

// Values returns a copy of the raw observations in insertion order. The
// order is stable regardless of which distribution queries ran first:
// Percentile, Min, Max, and friends sort a private view, never the
// observations themselves.
func (s *Sample) Values() []float64 { return append([]float64(nil), s.xs...) }

// TimeSeries buckets event timestamps into fixed-width bins anchored at a
// start instant. Used for hourly submission volumes and per-day activity.
type TimeSeries struct {
	Start  time.Time
	Width  time.Duration
	counts []int
}

// NewTimeSeries returns a series with the given origin and bucket width.
func NewTimeSeries(start time.Time, width time.Duration) *TimeSeries {
	if width <= 0 {
		panic("stats: non-positive bucket width")
	}
	return &TimeSeries{Start: start, Width: width}
}

// Observe records one event at t. Events before Start are clamped into the
// first bucket.
func (ts *TimeSeries) Observe(t time.Time) { ts.ObserveN(t, 1) }

// ObserveN records n events at t.
func (ts *TimeSeries) ObserveN(t time.Time, n int) {
	idx := 0
	if t.After(ts.Start) {
		idx = int(t.Sub(ts.Start) / ts.Width)
	}
	for len(ts.counts) <= idx {
		ts.counts = append(ts.counts, 0)
	}
	ts.counts[idx] += n
}

// Counts returns the bucket counts (a copy).
func (ts *TimeSeries) Counts() []int { return append([]int(nil), ts.counts...) }

// Len returns the number of buckets.
func (ts *TimeSeries) Len() int { return len(ts.counts) }

// Total returns the sum of all buckets.
func (ts *TimeSeries) Total() int {
	sum := 0
	for _, c := range ts.counts {
		sum += c
	}
	return sum
}

// Peak returns the maximum bucket count and its index, or (0, -1) when the
// series is empty.
func (ts *TimeSeries) Peak() (count, index int) {
	count, index = 0, -1
	for i, c := range ts.counts {
		if c > count {
			count, index = c, i
		}
	}
	return count, index
}

// Ratio returns a/b, or 0 when b is 0. It is the pipeline's standard "safe
// divide" for shares and multipliers.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PercentDelta returns the percentage change from base to x, e.g. 0.25 for
// a 25% increase. Returns 0 when base is 0.
func PercentDelta(base, x float64) float64 {
	if base == 0 {
		return 0
	}
	return (x - base) / base
}
