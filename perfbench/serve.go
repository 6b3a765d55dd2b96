package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"manualhijack/internal/challenge"
	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/risk"
	"manualhijack/internal/serve"
	"manualhijack/internal/stream"
)

// Serve sizes. The dump is one simulated world, as cmd/hijacksim writes
// it: each paced phase replays its first rate×window logins, where window
// is a tenth of --seconds, and each batch unit all of them.
const (
	servePop      = 2000
	serveDays     = 30
	serveMiniPop  = 500
	serveMiniDays = 7
	// batchLogins is the logins per /v1/score.batch round trip.
	batchLogins = 64
	// referenceRate is the paced rate serve.p50_ms and serve.p99_ms are
	// reported at.
	referenceRate = 2000
	// latencyLimit is the p99 a paced rate must stay under to count
	// toward serve.max_rate.
	latencyLimit = 50 * time.Millisecond
	// latenessGrowth is how much later than in the first quarter of a
	// paced phase the last quarter may be sent before the backlog counts
	// as growing.
	latenessGrowth = 5 * time.Millisecond
)

// paceRates bracket the open-loop knee on the 2-core reference host: with
// 2 lanes, 4000 logins/s held p99 under 12 ms on every seed tried, while
// at 8000 lateness grew and p99 passed 100 ms.
var paceRates = []int{1000, 2000, 4000, 8000}

// serveInputs is the serve workload's set-up: the configuration of the
// world whose log is the dump, the logins the simulator scored, in log
// order, their lanes, and the dump's logins cut into one sealed store per
// UTC day, which the batch units replay.
type serveInputs struct {
	cfg    core.Config
	logins []event.Login
	lanes  [][]int
	days   []*logstore.Store
}

// serve runs riskd in process, configured as cmd/riskd configures it, on
// a loopback listener: first a paced score+outcome replay at each of
// paceRates, then, as the timed units, closed-loop /v1/score.batch
// replays of the whole dump. Every phase and unit gets a fresh engine, so
// every decision must match the simulator's.
func (b *bench) serve(d time.Duration) (map[string]float64, error) {
	pop, days, window := servePop, serveDays, d/10
	if b.mini {
		pop, days, window = serveMiniPop, serveMiniDays, 250*time.Millisecond
	}
	var in *serveInputs
	var srv phaseServer
	var setup []float64
	var sum0 uint64
	for i := 0; i < b.setups(setupReps); i++ {
		t0 := time.Now()
		next := b.serveSetup(pop, days)
		nextSrv := b.newServer(next.cfg)
		setup = append(setup, time.Since(t0).Seconds())
		if sum := loginsHash(next.logins); i == 0 {
			sum0 = sum
		} else {
			b.op(sum == sum0, "serve: set-up %d simulated a different dump for the same seed", i)
		}
		in, srv = next, nextSrv
	}
	f := &front{}
	url, stop, err := listen(f)
	if err != nil {
		return nil, err
	}
	defer stop()

	start := time.Now()
	paced := make([]paceResult, len(paceRates))
	for i, rate := range paceRates {
		if i > 0 {
			srv = b.newServer(in.cfg)
		}
		f.set(srv.handler, b.timing())
		paced[i] = b.pace(url, in, rate, window)
		b.readBus(srv.bus)
	}
	b.reportPaced(paced)

	var bus *stream.Bus
	p, err := b.measure("serve.unit", d-time.Since(start), func() error {
		if bus != nil {
			b.readBus(bus)
		}
		s := b.newServer(in.cfg)
		bus = s.bus
		f.set(s.handler, b.timing())
		return nil
	}, func(parent int) error { return b.batchUnit(parent, url, in) })
	if err != nil {
		return nil, err
	}
	b.readBus(bus)
	if b.tr != nil {
		b.publishProbe(in)
	}
	observed, dropped := b.sums["stream.observed"], b.sums["stream.dropped"]
	b.add("stream.dropped_share", dropped/math.Max(observed+dropped, 1))
	rates := b.vals["serve.batch_logins_per_s"]
	fmt.Printf("serve.batch_logins_per_s %.1f logins/s (median of %d closed-loop replays of %d logins, %d lanes, %d logins per batch)\n",
		median(rates), len(rates), len(in.logins), workers, batchLogins)
	return b.finish("serve.unit", setup, p), nil
}

// serveSetup simulates the dump's world, keeps the logins the simulator
// scored and deals them onto lanes. A blocked login whose score is under
// the block threshold was refused by anti-abuse before risk analysis
// ran; serve.Replay skips those, and so does the benchmark. The world
// itself is dropped: only its logins and configuration live on.
func (b *bench) serveSetup(pop, days int) *serveInputs {
	w := b.simulate(pop, days)
	blockAt := serve.DefaultConfig(b.seed).BlockThreshold
	all := logstore.Select[event.Login](w.Log)
	in := &serveInputs{cfg: w.Cfg, days: splitDays(all)}
	for _, l := range all {
		if l.Outcome == event.LoginBlocked && l.RiskScore < blockAt {
			continue
		}
		in.logins = append(in.logins, l)
	}
	in.lanes = planLanes(in.logins, workers)
	return in
}

// splitDays cuts logins, in log order, into one sealed store per UTC day.
func splitDays(logins []event.Login) []*logstore.Store {
	var days []*logstore.Store
	var day time.Time
	for _, l := range logins {
		if d := l.Time.UTC().Truncate(24 * time.Hour); len(days) == 0 || !d.Equal(day) {
			if len(days) > 0 {
				days[len(days)-1].Seal()
			}
			day = d
			days = append(days, logstore.New())
		}
		days[len(days)-1].Append(l)
	}
	if len(days) > 0 {
		days[len(days)-1].Seal()
	}
	return days
}

// phaseServer is one fresh riskd: its root handler and its stream bus.
type phaseServer struct {
	handler http.Handler
	bus     *stream.Bus
}

// newServer bootstraps riskd as cmd/riskd does for the dump's seed and
// population: the DefaultConfig engine, primed, default server limits,
// and a stream bus with the default suite. In a traced phase the engine
// is wrapped in a timing Pipeline.
func (b *bench) newServer(cfg core.Config) phaseServer {
	var e *serve.Engine
	b.tr.do("serve.bootstrap", 0, func(int) {
		dir := core.NewStudyDirectory(b.seed, cfg.Start, cfg.PopulationN+cfg.DecoyN)
		e = serve.New(dir, core.DefaultIPPlan(), serve.DefaultConfig(b.seed))
	})
	b.tr.do("serve.prime", 0, func(int) { e.Prime() })
	var pipe serve.Pipeline = e
	if rec := b.timing(); rec != nil {
		pipe = timedPipeline{e: e, rec: rec}
	}
	srv := serve.NewServer(pipe, serve.ServerConfig{})
	bus := stream.NewBus(stream.DefaultSuite(core.DefaultIPPlan())...)
	srv.SetStream(bus)
	return phaseServer{handler: srv.Handler(), bus: bus}
}

// timing is where a traced phase records per-request samples; nil when
// the phase is untraced.
func (b *bench) timing() *samples {
	if b.tr == nil {
		return nil
	}
	return b.rec
}

// readBus adds a finished phase's stream-bus counters.
func (b *bench) readBus(bus *stream.Bus) {
	snap := bus.Snapshot()
	b.sum("stream.observed", float64(snap.EventsObserved))
	b.sum("stream.dropped", float64(snap.EventsDropped))
}

// front is the listener's handler. It forwards each request to the
// current phase's server, so that every phase gets a fresh engine behind
// one loopback address, and in a traced phase it times the request
// through Server.Handler.
type front struct{ cur atomic.Pointer[route] }

type route struct {
	h   http.Handler
	rec *samples
}

func (f *front) set(h http.Handler, rec *samples) { f.cur.Store(&route{h: h, rec: rec}) }

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt := f.cur.Load()
	if rt.rec == nil {
		rt.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	rt.h.ServeHTTP(w, r)
	name := "handler"
	if r.URL.Path == "/v1/score.batch" {
		name = "batch_handler"
	}
	rt.rec.add(name, time.Since(t0))
}

// listen serves h on a loopback port; stop closes the server and waits
// for it to return.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // http.ErrServerClosed once stop closes it
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close() // only the listener and idle connections remain
		<-done
	}, nil
}

// timedPipeline is the serve.Pipeline a traced phase hands
// serve.NewServer: the engine, with each call timed.
type timedPipeline struct {
	e   *serve.Engine
	rec *samples
}

func (p timedPipeline) Score(att risk.Attempt, pr *challenge.Principal) serve.Decision {
	t0 := time.Now()
	d := p.e.Score(att, pr)
	p.rec.add("engine_score", time.Since(t0))
	return d
}

func (p timedPipeline) RecordOutcome(att risk.Attempt, success bool) {
	t0 := time.Now()
	p.e.RecordOutcome(att, success)
	p.rec.add("engine_outcome", time.Since(t0))
}

// samples collects per-request durations, in microseconds, from the
// lanes and the server's goroutines. A nil *samples records nothing.
type samples struct {
	mu sync.Mutex
	by map[string][]float64
}

func (s *samples) add(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.by[name] = append(s.by[name], float64(d)/float64(time.Microsecond))
	s.mu.Unlock()
}

// values adds the per-request serving metrics to out; nothing when the
// run served no traced request.
func (s *samples) values(out map[string]float64) {
	if s == nil || len(s.by["handler"]) == 0 {
		return
	}
	score := summarize(s.by["engine_score"], 0.99)
	handler := summarize(s.by["handler"], 0.99)
	rtt := summarize(s.by["client_rtt"], 0.99)
	out["serve.engine_score_p50_us"], out["serve.engine_score_p99_us"] = score.P50, score.Tail
	out["serve.engine_outcome_us"] = median(s.by["engine_outcome"])
	out["serve.handler_p50_us"], out["serve.handler_p99_us"] = handler.P50, handler.Tail
	out["serve.client_rtt_p50_us"], out["serve.client_rtt_p99_us"] = rtt.P50, rtt.Tail
	out["serve.batch_handler_ms"] = median(s.by["batch_handler"]) / 1e3
}

// paceResult is one paced phase. latency and lateness are per login, in
// ms, and NaN for logins never sent. first describes the failed login
// earliest in the log, if any.
type paceResult struct {
	rate                                         int
	latency, lateness                            []float64
	done, mismatches, errors, rejected, requests int64
	first                                        string
}

// firstProblem keeps the description of the failure earliest in the log,
// from whichever lane reports it.
type firstProblem struct {
	mu  sync.Mutex
	k   int
	msg string
}

func (f *firstProblem) note(k int, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.msg == "" || k < f.k {
		f.k, f.msg = k, fmt.Sprintf(format, args...)
	}
}

// pace replays the first rate×window logins as an open loop: login k is
// due k/rate after the start, and each lane sends its logins in log order,
// each no earlier than due. A login's latency runs from when it was due
// to its score reply, so a stall also counts against the logins queued
// behind it; its lateness is how long after due it was sent. A login whose
// request fails is counted and the lane goes on with the next.
func (b *bench) pace(url string, in *serveInputs, rate int, window time.Duration) paceResult {
	n := min(int(float64(rate)*window.Seconds()), len(in.logins))
	res := paceResult{rate: rate, latency: make([]float64, n), lateness: make([]float64, n)}
	for k := range res.latency {
		res.latency[k], res.lateness[k] = math.NaN(), math.NaN()
	}
	cfg := serve.DefaultConfig(b.seed)
	rec := b.timing()
	interval := time.Second / time.Duration(rate)
	var done, mismatches, errs, rejected, requests atomic.Int64
	var first firstProblem
	failed := func(k int, what string, err error) {
		if serve.IsRejected(err) {
			rejected.Add(1)
		} else {
			errs.Add(1)
		}
		ev := &in.logins[k]
		first.note(k, "%s of account %d at %s: %v", what, ev.Account, ev.Time, err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, lane := range in.lanes {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			c := &serve.Client{Base: url}
			for _, k := range lane {
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				res.lateness[k] = ms(time.Since(due))
				ev := &in.logins[k]
				ip := ev.IP.String()
				t0 := time.Now()
				resp, err := c.Score(serve.ScoreRequest{
					Account: ev.Account, IP: ip, DeviceID: ev.DeviceID, At: ev.Time, PasswordOK: ev.PasswordOK,
				})
				rec.add("client_rtt", time.Since(t0))
				res.latency[k] = ms(time.Since(due))
				requests.Add(1)
				if err != nil {
					failed(k, "score", err)
					continue
				}
				if want := serve.VerdictFor(ev.RiskScore, cfg.ChallengeThreshold, cfg.BlockThreshold); resp.Score != ev.RiskScore || resp.Verdict != want {
					mismatches.Add(1)
					first.note(k, "account %d at %s: served score=%v verdict=%s, simulator logged score=%v (verdict %s)",
						ev.Account, ev.Time, resp.Score, resp.Verdict, ev.RiskScore, want)
				}
				t0 = time.Now()
				err = c.Outcome(serve.OutcomeRequest{
					Account: ev.Account, IP: ip, DeviceID: ev.DeviceID, At: ev.Time, Success: ev.Outcome == event.LoginSuccess,
				})
				rec.add("client_rtt", time.Since(t0))
				requests.Add(1)
				if err != nil {
					failed(k, "outcome", err)
					continue
				}
				done.Add(1)
			}
		}(lane)
	}
	wg.Wait()
	res.done, res.mismatches, res.errors, res.rejected, res.requests =
		done.Load(), mismatches.Load(), errs.Load(), rejected.Load(), requests.Load()
	res.first = first.msg
	return res
}

// summary reduces a paced phase: latency and lateness over the logins
// sent, and whether lateness grew from the first quarter of the phase to
// the last, a backlog the server is not working off.
func (r paceResult) summary() (latency, lateness dist, growing bool) {
	var lat, late []float64
	for k := range r.latency {
		if !math.IsNaN(r.latency[k]) {
			lat = append(lat, r.latency[k])
			late = append(late, r.lateness[k])
		}
	}
	q := len(late) / 4
	growing = q > 0 && median(late[len(late)-q:])-median(late[:q]) > ms(latenessGrowth)
	return summarize(lat, 0.99), summarize(late, 0.99), growing
}

// reportPaced checks and prints every paced phase, and records the
// serving figures: latency and lateness at referenceRate, and max_rate,
// the highest rate with no failed login, a p99 under latencyLimit and no
// growing lateness.
func (b *bench) reportPaced(paced []paceResult) {
	maxRate := 0
	for _, r := range paced {
		lat, late, growing := r.summary()
		n := len(r.latency)
		bad := n - int(r.done) + int(r.mismatches)
		b.ops(n, bad, "serve: at %d logins/s %d of %d logins failed (%d parity mismatches, %d errors, %d rejected; first: %s)",
			r.rate, bad, n, r.mismatches, r.errors, r.rejected, r.first)
		ok := bad == 0 && lat.Tail < ms(latencyLimit) && !growing
		if ok {
			maxRate = max(maxRate, r.rate)
		}
		fmt.Printf("serve: %d logins/s, %d logins: latency p50 %.3f ms, p%.1f %.3f ms; lateness p50 %.3f ms, p%.1f %.3f ms; growing %v; within limit %v\n",
			r.rate, lat.N, lat.P50, lat.TailPct, lat.Tail, late.P50, late.TailPct, late.Tail, growing, ok)
		b.sum("serve.http_requests", float64(r.requests))
		b.sum("serve.mismatches", float64(r.mismatches))
		b.sum("serve.errors", float64(r.errors))
		b.sum("serve.rejected_429", float64(r.rejected))
		if r.rate == referenceRate {
			b.add("serve.p50_ms", lat.P50)
			b.add("serve.p99_ms", lat.Tail)
			b.add("serve.latency_samples", float64(lat.N))
			b.add("serve.lateness_p50_ms", late.P50)
			b.add("serve.lateness_p99_ms", late.Tail)
			fmt.Printf("serve.p50_ms %.3f ms, serve.p99_ms %.3f ms (p%.1f of %d logins at %d logins/s)\n",
				lat.P50, lat.Tail, lat.TailPct, lat.N, r.rate)
		}
	}
	b.add("serve.max_rate", float64(maxRate))
	fmt.Printf("serve.max_rate %d logins/s (p99 under %v, no failed login, no growing lateness)\n", maxRate, latencyLimit)
}

// batchUnit replays the whole dump with serve.Replay through
// /v1/score.batch: workers lanes, batchLogins logins per round trip, one
// UTC day of the dump per Replay call. serve.Replay runs its lanes without
// a common clock, and the engine's IP-fanout tracker evicts entries more
// than a day older than the newest day any lane has reached, so a lane
// that runs over a day ahead of the other erases history the other still
// reads. Replaying the dump whole gave about one parity mismatch per
// 10^4 logins on a 30-day dump; replaying it day by day keeps the lanes
// within one day of each other.
func (b *bench) batchUnit(parent int, url string, in *serveInputs) error {
	cfg := serve.DefaultConfig(b.seed)
	var scored, mismatches int
	var reqs int64
	var first string
	var err error
	c := &serve.Client{Base: url}
	t0 := time.Now()
	b.tr.do("serve.replay_batch", parent, func(int) {
		for _, day := range in.days {
			var st serve.ReplayStats
			st, err = serve.Replay(day, c, serve.ReplayConfig{
				ChallengeThreshold: cfg.ChallengeThreshold,
				BlockThreshold:     cfg.BlockThreshold,
				Workers:            workers,
				BatchSize:          batchLogins,
			})
			scored, mismatches, reqs = scored+st.Scored, mismatches+st.Mismatches, reqs+st.HTTPReqs
			if first == "" {
				first = st.FirstMismatch
			}
			if err != nil {
				return
			}
		}
	})
	took := time.Since(t0)
	n := len(in.logins)
	bad := n - scored + mismatches
	if err != nil {
		bad = max(bad, 1)
		b.sum("serve.errors", 1)
	}
	b.ops(n, bad, "serve: batch replay: %d of %d logins failed (%d parity mismatches, first: %s; error: %v)",
		bad, n, mismatches, first, err)
	b.add("serve.batch_logins_per_s", float64(scored)/took.Seconds())
	b.sum("serve.http_requests", float64(reqs))
	b.sum("serve.mismatches", float64(mismatches))
	return nil
}

// publishProbe times stream.Bus.Publish over the dump's logins, on a
// fresh bus with riskd's analysis suite.
func (b *bench) publishProbe(in *serveInputs) {
	bus := stream.NewBus(stream.DefaultSuite(core.DefaultIPPlan())...)
	var took time.Duration
	b.tr.do("stream.publish", 0, func(int) {
		t0 := time.Now()
		for i := range in.logins {
			bus.Publish(in.logins[i])
		}
		took = time.Since(t0)
	})
	b.add("stream.publish_us", float64(took)/float64(time.Microsecond)/float64(len(in.logins)))
}

// planLanes deals logins onto n lanes so that logins linked by a chain of
// shared accounts or shared IPs share a lane, as serve.Replay documents:
// only then does each lane, replayed in log order, reproduce the
// simulator's history. Components go largest first onto the least loaded
// lane. A lane lists positions in logins, ascending.
func planLanes(logins []event.Login, n int) [][]int {
	var parent []int
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	accounts := make(map[identity.AccountID]int)
	ips := make(map[netip.Addr]int)
	node := make([]int, len(logins))
	for i, l := range logins {
		a, ok := accounts[l.Account]
		if !ok {
			a = len(parent)
			parent = append(parent, a)
			accounts[l.Account] = a
		}
		p, ok := ips[l.IP]
		if !ok {
			p = len(parent)
			parent = append(parent, p)
			ips[l.IP] = p
		}
		if ra, rp := find(a), find(p); ra != rp {
			parent[rp] = ra
		}
		node[i] = a
	}
	size := make(map[int]int)
	for i := range logins {
		size[find(node[i])]++
	}
	roots := make([]int, 0, len(size))
	for r := range size {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(x, y int) bool {
		if size[roots[x]] != size[roots[y]] {
			return size[roots[x]] > size[roots[y]]
		}
		return roots[x] < roots[y]
	})
	laneOf := make(map[int]int, len(roots))
	load := make([]int, n)
	for _, r := range roots {
		best := 0
		for l := range load {
			if load[l] < load[best] {
				best = l
			}
		}
		laneOf[r] = best
		load[best] += size[r]
	}
	lanes := make([][]int, n)
	for i := range logins {
		l := laneOf[find(node[i])]
		lanes[l] = append(lanes[l], i)
	}
	return lanes
}

// loginsHash fingerprints the replayable logins, so that set-ups with one
// seed can be checked to simulate one dump.
func loginsHash(logins []event.Login) uint64 {
	h := fnv.New64a()
	for _, l := range logins {
		fmt.Fprintf(h, "%d %d %s %v %v\n", l.Account, l.Time.UnixNano(), l.IP, l.RiskScore, l.Outcome)
	}
	return h.Sum64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
