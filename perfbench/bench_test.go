package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "unit", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15 * ms, End: 25 * ms},
		// b overlaps a, and d lies inside b: together they cover 10–60 once.
		{ID: 4, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},
		{ID: 5, Parent: 1, Name: "d", Start: 35 * ms, End: 50 * ms},
		// c outlives its parent: only the part inside the parent counts.
		{ID: 6, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
	}
	want := map[string]time.Duration{
		"unit": 40 * ms, "a": 20 * ms, "a.inner": 10 * ms, "b": 30 * ms, "d": 15 * ms, "c": 30 * ms,
	}
	for i, got := range selfTimes(spans) {
		if w := want[spans[i].Name]; got != w {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, w)
		}
	}

	// A second unit, and a span outside any unit, which unitLayers ignores.
	spans = append(spans,
		span{ID: 7, Name: "unit", Start: 200 * ms, End: 260 * ms},
		span{ID: 8, Parent: 7, Name: "a", Start: 210 * ms, End: 250 * ms},
		span{ID: 9, Name: "setup", Start: 300 * ms, End: 400 * ms},
	)
	layers := unitLayers(spans, "unit")
	// a: 20 ms in the first unit, 40 ms in the second; unit: 40 and 20.
	for name, w := range map[string]float64{"a": 0.030, "unit": 0.030, "b": 0.030, "a.inner": 0.010} {
		if got := layers[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("median self time of %s per unit = %v, want %v", name, got, w)
		}
	}
	if _, ok := layers["setup"]; ok {
		t.Error("unitLayers counted a span outside every unit")
	}
	// The layers of a median unit: a 30, a.inner 10, b 30, d 15, c 30 ms;
	// the units' own 30 ms is time no layer covers.
	if got := layerSeconds(spans, "unit"); math.Abs(got-0.115) > 1e-9 {
		t.Errorf("layerSeconds = %v, want 0.115", got)
	}
}

func TestSplitDays(t *testing.T) {
	day := time.Date(2012, 11, 27, 0, 0, 0, 0, time.UTC)
	var logins []event.Login
	for _, at := range []time.Duration{time.Hour, 23 * time.Hour, 24 * time.Hour, 50 * time.Hour, 71 * time.Hour} {
		l := login(1, "10.0.0.1")
		l.Time = day.Add(at)
		logins = append(logins, l)
	}
	var sizes []int
	for _, s := range splitDays(logins) {
		sizes = append(sizes, s.Len())
	}
	// Midnight belongs to the day it starts; a day with no login gets no
	// store.
	if want := []int{2, 1, 2}; !slices.Equal(sizes, want) {
		t.Errorf("logins per day store = %v, want %v", sizes, want)
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
	}{
		{2000, 1979}, // p99 with twenty samples above it
		{1000, 989},  // p99 with exactly ten above it
		{500, 489},   // p99 would leave five: p98 leaves ten
		{21, 10},     // the tail falls to the median
		{15, 7},      // too few for any tail: the median
		{1, 0},
	} {
		if got := tailRank(c.n, 0.99); got != c.want {
			t.Errorf("tailRank(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(500 - i)
	}
	d := summarize(xs, 0.99)
	if d.N != 500 || d.P50 != 250.5 || d.Tail != 490 || d.TailPct != 98 {
		t.Errorf("summarize = %+v, want median 250.5 and p98 = 490 of 500", d)
	}
}

func login(account int, ip string) event.Login {
	return event.Login{Account: identity.AccountID(account), IP: netip.MustParseAddr(ip)}
}

func TestPlanLanesKeepsComponentsTogether(t *testing.T) {
	// 1 and 2 share 10.0.0.1, 2 and 3 share 10.0.0.2: one component,
	// though 1 and 3 share nothing directly. 4 is alone.
	logins := []event.Login{
		login(1, "10.0.0.1"), login(2, "10.0.0.1"), login(2, "10.0.0.2"), login(3, "10.0.0.2"), login(4, "10.9.9.9"),
	}
	of := laneOf(t, logins, planLanes(logins, 2))
	if of[0] != of[1] || of[1] != of[2] || of[2] != of[3] {
		t.Errorf("a component is split across lanes: %v", of)
	}
	if of[4] == of[0] {
		t.Errorf("the lone account shares the big component's lane: %v", of)
	}

	// Many small components and a few links between them: every account
	// and every IP must stay in one lane, and both lanes must get work.
	rng := rand.New(rand.NewSource(7))
	logins = nil
	for i := 0; i < 5000; i++ {
		account := rng.Intn(2000) + 1
		group := account / 4
		if rng.Intn(100) == 0 {
			group = rng.Intn(500)
		}
		logins = append(logins, event.Login{
			Account: identity.AccountID(account),
			IP:      netip.AddrFrom4([4]byte{10, 1, byte(group >> 8), byte(group)}),
		})
	}
	lanes := planLanes(logins, 2)
	of = laneOf(t, logins, lanes)
	accountLane := map[identity.AccountID]int{}
	ipLane := map[netip.Addr]int{}
	for i, l := range logins {
		if lane, ok := accountLane[l.Account]; ok && lane != of[i] {
			t.Fatalf("account %d is split across lanes", l.Account)
		}
		if lane, ok := ipLane[l.IP]; ok && lane != of[i] {
			t.Fatalf("IP %s is split across lanes", l.IP)
		}
		accountLane[l.Account], ipLane[l.IP] = of[i], of[i]
	}
	if len(lanes[0]) == 0 || len(lanes[1]) == 0 {
		t.Errorf("lanes hold %d and %d logins", len(lanes[0]), len(lanes[1]))
	}
}

// laneOf maps each login to its lane, failing unless every login is in
// exactly one lane and every lane keeps log order.
func laneOf(t *testing.T, logins []event.Login, lanes [][]int) []int {
	t.Helper()
	of := make([]int, len(logins))
	for i := range of {
		of[i] = -1
	}
	for l, lane := range lanes {
		for k, i := range lane {
			if k > 0 && i <= lane[k-1] {
				t.Fatalf("lane %d breaks log order at position %d", l, k)
			}
			if of[i] != -1 {
				t.Fatalf("login %d is in lanes %d and %d", i, of[i], l)
			}
			of[i] = l
		}
	}
	for i, l := range of {
		if l == -1 {
			t.Fatalf("login %d is in no lane", i)
		}
	}
	return of
}

// TestMetricNames checks every metric name against the naming rule, and
// BENCHMARK.json against the workloads and metrics the benchmark reports.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var layers []metricDef
	for _, l := range layerDefs() {
		layers = append(layers, l.metricDef)
	}
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), layers...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is defined twice", m.Name)
		}
		seen[m.Name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark reports %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer differs from metrics.go:\n json %v\n code %v", spec.PerLayer, layers)
	}
}
