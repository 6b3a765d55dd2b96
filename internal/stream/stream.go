// Package stream is the online half of the measurement pipeline: the
// analyses that make sense *while logins happen* (the paper's §8.2
// detection posture), fed from a live event feed instead of a batch pass
// over a sealed logstore.Store.
//
// Correctness rests on parity by construction: the live set is a list of
// core.Registry() names, and each live builder is built by its registry
// entry, at the registry's parameters, and finalized through the entry's
// own finalizer — so the streaming and batch paths run one definition of
// each analysis and cannot drift. The replay harness
// (TestStreamingMatchesBatch) pins the remaining glue by piping sealed
// dumps through the streaming path and asserting reflect.DeepEqual against
// the batch registry's output.
//
// Feeds: a world taps its log (core.World.Tap → Bus.Publish) so the
// analyses track the simulation as it runs, and riskd publishes a
// synthesized login record per scored request, exposing live snapshots at
// /v1/streamz. Live builders hold aggregate state only — per-IP days,
// per-page series, per-account funnel bits — never the log itself.
package stream

import (
	"reflect"
	"slices"

	"manualhijack/internal/analysis"
	"manualhijack/internal/core"
	"manualhijack/internal/geo"
)

// live lists the registry analyses that run on the live feed, in Report
// order: the lifecycle funnel, campaign arrival decay (Figure 6), per-IP
// fanout (Figure 8), geo-velocity clusters (Figure 11) and the
// per-archetype detection scorecard. A live entry must not need the
// account directory; of its input it may read only Plan.
var live = []string{"lifecycle", "figure-6", "figure-8", "figure-11", "archetype-scorecard"}

// Live returns the registry names of the live analyses, in Report order.
func Live() []string { return slices.Clone(live) }

// Report is a point-in-time snapshot of every live analysis, plus the bus
// counters.
type Report struct {
	// EventsObserved counts events accepted by the bus; EventsDropped
	// counts out-of-order arrivals it refused.
	EventsObserved int64 `json:"events_observed"`
	EventsDropped  int64 `json:"events_dropped"`
	// LastEvent is the timestamp high-water mark.
	LastEvent string `json:"last_event,omitempty"`

	Lifecycle analysis.Lifecycle          `json:"lifecycle"`
	Fig6      analysis.Figure6            `json:"figure6_arrival_decay"`
	Fig8      analysis.Figure8            `json:"figure8_ip_fanout"`
	Fig11     analysis.Figure11           `json:"figure11_geo_clusters"`
	Scorecard analysis.ArchetypeScorecard `json:"archetype_scorecard"`
}

// FromStudy copies the live analyses' fields of a study report into a
// Report, leaving the bus counters zero.
func FromStudy(r *core.StudyReport) Report {
	return Report{
		Lifecycle: r.Lifecycle,
		Fig6:      r.Fig6,
		Fig8:      r.Fig8,
		Fig11:     r.Fig11,
		Scorecard: r.ArchetypeScorecard,
	}
}

// AnalysisDiff compares the analysis fields of two reports (ignoring the
// bus counters) and returns the names of the ones that differ — empty
// means the reports agree. cmd/analyze -stream and the parity tests use it
// to render actionable mismatches instead of a bare DeepEqual failure.
func AnalysisDiff(a, b Report) []string {
	var diffs []string
	if !reflect.DeepEqual(a.Lifecycle, b.Lifecycle) {
		diffs = append(diffs, "lifecycle")
	}
	if !reflect.DeepEqual(a.Fig6, b.Fig6) {
		diffs = append(diffs, "figure-6")
	}
	if !reflect.DeepEqual(a.Fig8, b.Fig8) {
		diffs = append(diffs, "figure-8")
	}
	if !reflect.DeepEqual(a.Fig11, b.Fig11) {
		diffs = append(diffs, "figure-11")
	}
	if !reflect.DeepEqual(a.Scorecard, b.Scorecard) {
		diffs = append(diffs, "archetype-scorecard")
	}
	return diffs
}

// DefaultSuite returns a fresh builder for each live analysis, built by
// its registry entry, with Figure 11 locating IPs against plan.
func DefaultSuite(plan *geo.IPPlan) []core.StreamAnalysis {
	in := core.AnalysisInput{Plan: plan}
	var suite []core.StreamAnalysis
	for _, a := range core.Registry() {
		if slices.Contains(live, a.Name) {
			suite = append(suite, a.Stream(in))
		}
	}
	return suite
}
