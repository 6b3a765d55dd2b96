package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, timed by the benchmark around a public
// function of the program. Parent is the id of the span that made the
// call, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps a run's spans in memory; they are written out when the
// benchmark ends. A nil *tracer records nothing, which is how untraced
// runs and untraced units skip the bookkeeping.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn inside a span named name under parent. fn receives the
// span's id, so that the calls it makes can name it as their parent.
func (t *tracer) do(name string, parent int, fn func(id int)) {
	if t == nil {
		fn(0)
		return
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.epoch)})
	t.mu.Unlock()
	fn(id)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children that overlap each other,
// such as calls from parallel goroutines, are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type interval struct{ lo, hi time.Duration }
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		if i > 0 && iv.lo <= cur.hi {
			cur.hi = max(cur.hi, iv.hi)
			continue
		}
		total += cur.hi - cur.lo
		cur = iv
	}
	return total + cur.hi - cur.lo
}

// selfByName groups the spans' self times, in seconds, by span name.
func selfByName(spans []span) map[string][]float64 {
	by := make(map[string][]float64)
	for i, d := range selfTimes(spans) {
		by[spans[i].Name] = append(by[spans[i].Name], d.Seconds())
	}
	return by
}

// unitLayers splits the units — root spans named root — across layers:
// for each span name it sums the self time spent under one unit, and
// returns the median of those sums over the units, in seconds.
func unitLayers(spans []span, root string) map[string]float64 {
	self := selfTimes(spans)
	rootOf := make(map[int]int, len(spans))
	perUnit := make(map[int]map[string]float64)
	for i, s := range spans {
		r := s.ID
		if s.Parent != 0 {
			r = rootOf[s.Parent]
		}
		rootOf[s.ID] = r
		if spans[r-1].Name != root {
			continue
		}
		if perUnit[r] == nil {
			perUnit[r] = make(map[string]float64)
		}
		perUnit[r][s.Name] += self[i].Seconds()
	}
	byName := make(map[string][]float64)
	for _, layers := range perUnit {
		for name, v := range layers {
			byName[name] = append(byName[name], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// layerSeconds is how much of a unit the layers account for: the sum over
// span names of unitLayers' medians. The root's own self time is the part
// of a unit no layer span covers, so it stays out of the sum.
func layerSeconds(spans []span, root string) float64 {
	total := 0.0
	for name, v := range unitLayers(spans, root) {
		if name != root {
			total += v
		}
	}
	return total
}

// tracedRun is one workload's spans, as the span file holds them.
type tracedRun struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

func writeSpans(path string, runs []tracedRun) error {
	data, err := json.Marshal(runs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
