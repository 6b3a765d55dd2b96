// Package randx provides the deterministic random machinery for the study.
//
// Every subsystem gets its own *Rand forked from a root seed by name, so
// adding randomness consumption to one subsystem does not perturb the
// streams of the others — a property the experiment tests rely on. All
// distributions needed by the simulation (exponential, log-normal, Zipf,
// weighted categorical, Bernoulli) live here so the agent code stays
// declarative.
package randx

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Rand is a deterministic random stream. It embeds *rand.Rand and adds the
// distributions the simulation uses.
type Rand struct {
	*rand.Rand
	seed int64
}

// New returns a stream seeded with seed.
func New(seed int64) *Rand {
	return &Rand{Rand: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed this stream was created with.
func (r *Rand) Seed() int64 { return r.seed }

// Fork derives an independent stream from this stream's seed and a name.
// Forking is a pure function of (seed, name): it does not consume from the
// parent stream, so sibling subsystems are isolated from each other.
func (r *Rand) Fork(name string) *Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", r.seed, name)
	return New(int64(h.Sum64()))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}

// ExpDuration returns an exponentially distributed duration with the given
// mean.
func (r *Rand) ExpDuration(mean time.Duration) time.Duration {
	return time.Duration(r.Exp(float64(mean)))
}

// LogNormal returns a log-normally distributed value where mu and sigma are
// the parameters of the underlying normal (i.e. the median is exp(mu)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64()*sigma + mu)
}

// LogNormalMedian returns a log-normal sample parameterized by its median
// and the sigma of the underlying normal. This form is convenient when the
// paper states "average/typical X" and we want a heavy right tail.
func (r *Rand) LogNormalMedian(median float64, sigma float64) float64 {
	return r.LogNormal(math.Log(median), sigma)
}

// DurationLogNormal returns a log-normal duration with the given median.
func (r *Rand) DurationLogNormal(median time.Duration, sigma float64) time.Duration {
	return time.Duration(r.LogNormalMedian(float64(median), sigma))
}

// Between returns a uniform value in [lo, hi).
func (r *Rand) Between(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + r.Float64()*(hi-lo)
}

// DurationBetween returns a uniform duration in [lo, hi).
func (r *Rand) DurationBetween(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.Int63n(int64(hi-lo)))
}

// Pick returns a uniformly chosen element of items. It panics on an empty
// slice, which always indicates a simulation bug.
func Pick[T any](r *Rand, items []T) T {
	if len(items) == 0 {
		panic("randx: Pick from empty slice")
	}
	return items[r.Intn(len(items))]
}

// Sample returns k distinct elements drawn without replacement. If
// k >= len(items) a shuffled copy of all items is returned.
//
// The draw is the first k elements of math/rand's Perm(len(items)), with
// the same draws from r, without building the whole permutation: Perm's
// inside-out shuffle only ever moves a value from its first k slots to a
// later one, never back, so the first k slots can be followed alone.
func Sample[T any](r *Rand, items []T, k int) []T {
	n := len(items)
	if k > n {
		k = n
	}
	out := make([]T, k)
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		if i < k {
			out[i] = out[j]
		}
		if j < k {
			out[j] = items[i]
		}
	}
	return out
}

// Weighted selects among weighted alternatives. Build one with NewWeighted;
// it is immutable and safe to share across (single-goroutine) callers.
type Weighted[T any] struct {
	items []T
	cum   []float64
	total float64
}

// NewWeighted builds a weighted chooser. Weights must be non-negative and
// sum to a positive total.
func NewWeighted[T any](items []T, weights []float64) *Weighted[T] {
	if len(items) != len(weights) {
		panic("randx: items/weights length mismatch")
	}
	if len(items) == 0 {
		panic("randx: empty weighted chooser")
	}
	w := &Weighted[T]{items: append([]T(nil), items...), cum: make([]float64, len(weights))}
	for i, wt := range weights {
		if wt < 0 || math.IsNaN(wt) {
			panic("randx: negative or NaN weight")
		}
		w.total += wt
		w.cum[i] = w.total
	}
	if w.total <= 0 {
		panic("randx: zero total weight")
	}
	return w
}

// Choose draws one item according to the weights.
func (w *Weighted[T]) Choose(r *Rand) T {
	x := r.Float64() * w.total
	i := sort.SearchFloat64s(w.cum, x)
	if i >= len(w.items) {
		i = len(w.items) - 1
	}
	return w.items[i]
}

// Len reports the number of alternatives.
func (w *Weighted[T]) Len() int { return len(w.items) }

// Zipf draws ranks in [0, n) with a Zipf-like distribution of exponent s.
// Used for popularity skews (search-term frequency, contact activity).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 1.
func NewZipf(r *Rand, s float64, n uint64) *Zipf {
	if s <= 1 {
		s = 1.0001
	}
	return &Zipf{z: rand.NewZipf(r.Rand, s, 1, n-1)}
}

// Rank draws one rank.
func (z *Zipf) Rank() int { return int(z.z.Uint64()) }

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		n := int(math.Round(r.NormFloat64()*math.Sqrt(mean) + mean))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ClampedNormal returns a normal sample with the given mean and stddev,
// clamped to [lo, hi].
func (r *Rand) ClampedNormal(mean, stddev, lo, hi float64) float64 {
	x := r.NormFloat64()*stddev + mean
	return math.Min(hi, math.Max(lo, x))
}
