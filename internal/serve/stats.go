package serve

import (
	"math"
	"sync/atomic"
	"time"

	"manualhijack/internal/stats"
)

// latWindow bounds the latency history: percentiles are computed over the
// most recent latWindow requests so a long-running server's memory stays
// flat. 8k observations keep p99 stable at any realistic QPS.
const latWindow = 8192

// Metrics collects the serving counters behind /v1/statz. Counters and the
// latency ring are all atomics — the score hot path never takes a lock
// here.
type Metrics struct {
	start time.Time

	score       atomic.Int64
	outcome     atomic.Int64
	rejected    atomic.Int64
	badRequests atomic.Int64

	admit      atomic.Int64
	challenged atomic.Int64
	blocked    atomic.Int64
	challenges atomic.Int64

	lat latRing
}

// NewMetrics returns metrics anchored at now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

func (m *Metrics) observeScore(d Decision, took time.Duration) {
	m.score.Add(1)
	switch d.Verdict {
	case VerdictAdmit:
		m.admit.Add(1)
	case VerdictChallenge:
		m.challenged.Add(1)
	case VerdictBlock:
		m.blocked.Add(1)
	}
	if d.Challenge != nil {
		m.challenges.Add(1)
	}
	m.lat.observe(took)
}

func (m *Metrics) observeOutcome(took time.Duration) {
	m.outcome.Add(1)
	m.lat.observe(took)
}

// Snapshot renders the current counters as a statz reply. Percentiles come
// from a stats.Sample built over the latency window.
func (m *Metrics) Snapshot() StatzResponse {
	sample := m.lat.sample()
	return StatzResponse{
		UptimeS:     time.Since(m.start).Seconds(),
		Score:       m.score.Load(),
		Outcome:     m.outcome.Load(),
		Rejected:    m.rejected.Load(),
		BadRequests: m.badRequests.Load(),
		Verdicts: map[Verdict]int64{
			VerdictAdmit:     m.admit.Load(),
			VerdictChallenge: m.challenged.Load(),
			VerdictBlock:     m.blocked.Load(),
		},
		ChallengesRun: m.challenges.Load(),
		Latency: LatencyWire{
			N:     sample.N(),
			P50us: sample.Percentile(50),
			P95us: sample.Percentile(95),
			P99us: sample.Percentile(99),
			MaxUs: sample.Max(),
		},
	}
}

// latRing keeps the last latWindow latencies in microseconds, lock-free:
// writers claim a slot with one atomic add on the cursor and store the
// Float64bits there with one atomic store. Under a concurrent reader a
// slot may briefly hold a value one lap older or newer than its
// neighbours — harmless for percentile estimation over 8k samples, which
// is a statistic, not a ledger. The trade is deliberate: the old
// mutex-guarded ring serialized every score and outcome request through
// one lock; this version's two uncontended-by-design atomics don't.
type latRing struct {
	cursor atomic.Int64             // total observations ever; slot = (cursor-1) % latWindow
	buf    [latWindow]atomic.Uint64 // math.Float64bits of each latency
}

func (r *latRing) observe(d time.Duration) {
	us := float64(d.Microseconds())
	n := r.cursor.Add(1)
	r.buf[(n-1)%latWindow].Store(math.Float64bits(us))
}

// sample snapshots the window into a stats.Sample for percentile queries.
func (r *latRing) sample() *stats.Sample {
	n := r.cursor.Load()
	if n > latWindow {
		n = latWindow
	}
	var s stats.Sample
	for i := int64(0); i < n; i++ {
		s.Add(math.Float64frombits(r.buf[i].Load()))
	}
	return &s
}
