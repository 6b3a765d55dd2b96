package report

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"manualhijack/internal/core"
)

// belowFloor pins the ledger rows whose sample misses its floor in the
// seed-7, scale-0.25 study: the §3 base rate reads 0 hijacks over 3,748
// active accounts there. A row that newly drops below its floor, or
// climbs back above it, fails the test like a value out of band.
var belowFloor = []string{"s3.base-rate"}

// TestPaperLedger holds the reproduction to the paper: one study, and
// every ledger row at or above its sample floor must measure inside its
// band. -v logs one line per row.
func TestPaperLedger(t *testing.T) {
	sc := core.DefaultStudyConfig(7)
	sc.Scale = 0.25
	r := core.RunStudy(sc)

	ids := map[string]bool{}
	var below []string
	for _, c := range ledger {
		if ids[c.id] {
			t.Errorf("%s: id used twice", c.id)
		}
		ids[c.id] = true
		in, err := parseBand(c.band)
		if err != nil {
			t.Errorf("%s: %v", c.id, err)
			continue
		}
		v, n := c.measure(r)
		switch {
		case n < c.floor:
			below = append(below, c.id)
			t.Logf("%-30s %12.4g  n=%-6d below floor %d  band %s  paper %s", c.id, v, n, c.floor, c.band, c.paper)
		case !in(v):
			t.Errorf("%s (%s %s): %.4g (n=%d) is outside %s; paper %s", c.id, c.artifact, c.metric, v, n, c.band, c.paper)
		default:
			t.Logf("%-30s %12.4g  n=%-6d in %s  paper %s", c.id, v, n, c.band, c.paper)
		}
	}
	if !slices.Equal(below, belowFloor) {
		t.Errorf("rows below their sample floor = %v, want %v", below, belowFloor)
	}
}

// parseBand reads an interval such as "[0.25, 0.45]", "(0, inf)" or
// "(-inf, 60]" into its membership test.
func parseBand(band string) (func(float64) bool, error) {
	bad := fmt.Errorf("malformed band %q", band)
	lo, hi, ok := strings.Cut(band, ",")
	hi = strings.TrimSpace(hi)
	if !ok || len(lo) < 2 || len(hi) < 2 {
		return nil, bad
	}
	loOpen, hiOpen := lo[0] == '(', hi[len(hi)-1] == ')'
	if !loOpen && lo[0] != '[' || !hiOpen && hi[len(hi)-1] != ']' {
		return nil, bad
	}
	l, err := strconv.ParseFloat(lo[1:], 64)
	if err != nil {
		return nil, bad
	}
	h, err := strconv.ParseFloat(hi[:len(hi)-1], 64)
	if err != nil || l > h {
		return nil, bad
	}
	return func(v float64) bool {
		return (v > l || !loOpen && v == l) && (v < h || !hiOpen && v == h)
	}, nil
}
