package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs, or the mean of the two middle
// values; 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailRank is the benchmark's percentile rule. It returns the
// nearest-rank index, into n sorted samples, of percentile p; when fewer
// than ten samples lie above that rank, it returns the rank of the
// highest percentile that leaves ten above it. It never goes below the
// median's rank, so a small sample reports its median rather than a tail
// it cannot resolve.
func tailRank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if n-1-i < 10 {
		i = n - 11
	}
	return max(i, (n-1)/2)
}

// dist is a timing distribution as the benchmark reports it: the median,
// the tail percentile tailRank picks, and the sample count.
type dist struct {
	P50, Tail float64
	// TailPct is the percentile Tail stands for: the one asked for when
	// the sample is large enough, a lower one otherwise.
	TailPct float64
	N       int
}

func summarize(xs []float64, p float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := sorted(xs)
	i := tailRank(len(s), p)
	return dist{P50: median(s), Tail: s[i], TailPct: 100 * float64(i+1) / float64(len(s)), N: len(s)}
}
