package randx

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	root := New(7)
	a1 := root.Fork("auth")
	// Consuming from a sibling must not perturb another fork.
	m := root.Fork("mail")
	for i := 0; i < 50; i++ {
		m.Float64()
	}
	a2 := root.Fork("auth")
	for i := 0; i < 100; i++ {
		if a1.Float64() != a2.Float64() {
			t.Fatal("fork stream depends on sibling consumption")
		}
	}
}

func TestForkDistinctNames(t *testing.T) {
	root := New(7)
	if root.Fork("a").Seed() == root.Fork("b").Seed() {
		t.Fatal("distinct fork names share a seed")
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(1)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestBoolRate(t *testing.T) {
	r := New(3)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("Bool(0.3) rate = %.3f", rate)
	}
}

func TestExpMean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if mean < 9.5 || mean > 10.5 {
		t.Fatalf("Exp(10) mean = %.3f", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(9)
	var below int
	const n = 20000
	for i := 0; i < n; i++ {
		if r.LogNormalMedian(100, 0.8) < 100 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("median check: %.3f below the stated median", frac)
	}
}

func TestWeightedShares(t *testing.T) {
	r := New(11)
	w := NewWeighted([]string{"a", "b", "c"}, []float64{70, 20, 10})
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[w.Choose(r)]++
	}
	if got := float64(counts["a"]) / n; got < 0.67 || got > 0.73 {
		t.Fatalf("share(a) = %.3f, want ~0.70", got)
	}
	if got := float64(counts["c"]) / n; got < 0.08 || got > 0.12 {
		t.Fatalf("share(c) = %.3f, want ~0.10", got)
	}
}

func TestWeightedPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatch": func() { NewWeighted([]string{"a"}, []float64{1, 2}) },
		"empty":    func() { NewWeighted([]string{}, []float64{}) },
		"negative": func() { NewWeighted([]string{"a"}, []float64{-1}) },
		"zero":     func() { NewWeighted([]string{"a"}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(13)
	items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := Sample(r, items, 5)
	if len(got) != 5 {
		t.Fatalf("Sample returned %d items", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d in sample", v)
		}
		seen[v] = true
	}
	if len(Sample(r, items, 20)) != len(items) {
		t.Fatal("oversized sample did not return all items")
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(17)
	for _, mean := range []float64{0.5, 4, 100} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.06+0.05 {
			t.Fatalf("Poisson(%v) mean = %.3f", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestClampedNormal(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		x := r.ClampedNormal(5, 10, 0, 10)
		if x < 0 || x > 10 {
			t.Fatalf("ClampedNormal escaped bounds: %v", x)
		}
	}
}

func TestDurationBetween(t *testing.T) {
	r := New(23)
	lo, hi := time.Minute, time.Hour
	for i := 0; i < 1000; i++ {
		d := r.DurationBetween(lo, hi)
		if d < lo || d >= hi {
			t.Fatalf("DurationBetween out of range: %v", d)
		}
	}
	if got := r.DurationBetween(hi, lo); got != hi {
		t.Fatalf("inverted range should return lo bound, got %v", got)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(29)
	z := NewZipf(r, 1.5, 100)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Rank()]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("Zipf not skewed: rank0=%d rank10=%d", counts[0], counts[10])
	}
}

// Property: Fork is a pure function of (seed, name).
func TestForkPure(t *testing.T) {
	f := func(seed int64, name string) bool {
		return New(seed).Fork(name).Seed() == New(seed).Fork(name).Seed()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Bool(p) respects its bounds for all p.
func TestBoolBoundsProperty(t *testing.T) {
	r := New(31)
	f := func(p float64) bool {
		v := r.Bool(p)
		if p <= 0 && v {
			return false
		}
		if p >= 1 && !v {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSampleMatchesPerm holds Sample to the first k elements of
// r.Perm(len(items)), which it once built whole: the same elements in the
// same order, and the same next draw from r after, for every n in
// [0, 300], every k in [0, n+2] and several seeds.
func TestSampleMatchesPerm(t *testing.T) {
	items := make([]int, 300)
	for i := range items {
		items[i] = 1000 + i
	}
	for _, seed := range []int64{1, 7, 42, -3} {
		got, want := New(seed), New(seed)
		for n := 0; n <= len(items); n++ {
			for k := 0; k <= n+2; k++ {
				out := Sample(got, items[:n], k)
				idx := want.Perm(n)[:min(k, n)]
				if len(out) != len(idx) {
					t.Fatalf("seed %d, n %d, k %d: %d elements, want %d", seed, n, k, len(out), len(idx))
				}
				for i, j := range idx {
					if out[i] != items[j] {
						t.Fatalf("seed %d, n %d, k %d: element %d is %d, Perm gives %d", seed, n, k, i, out[i], items[j])
					}
				}
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("seed %d, n %d, k %d: next draw %d after Sample, %d after Perm", seed, n, k, a, b)
				}
			}
		}
	}
}
