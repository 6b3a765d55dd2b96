package serve

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
)

// Replay streams the login attempts out of an NDJSON dump through a live
// riskd and cross-checks every served decision against what the simulator
// decided for the same seed. It is the bridge between the serving
// subsystem and the measurement pipeline: if riskd is bootstrapped from
// the dump's seed and population, parity must be exact — the served score
// equals the logged RiskScore bit-for-bit and the served verdict equals
// the verdict that score implies.
//
// The state contract that makes this work: for every login attempt the
// simulator scored, auth.Service evolves analyzer state as exactly
// Score(att) followed by RecordOutcome(att, outcome == success) — every
// admission path (plain success, app-password bypass, challenge pass) ends
// in a success record, and every refusal (wrong password, challenge fail,
// risk block) ends in a failure record. Replay therefore posts /v1/score
// and then /v1/outcome with success := (Outcome == LoginSuccess) for each
// event, in log order, and the server's sharded analyzers march in
// lockstep with the simulator's.
//
// The one excluded case: attempts against anti-abuse-disabled accounts are
// refused before risk analysis runs, so the simulator logs them with a
// zero score and no history update. They are identifiable — a blocked
// outcome whose logged score is below the block threshold could not have
// come from the risk gate — and are skipped (counted in Skipped).
//
// # Concurrency without losing parity
//
// Per-account ordering alone is NOT enough to reproduce the simulator's
// single-goroutine history: the fanout signal couples accounts that share
// an IP, so two accounts hitting the same address must also keep their
// relative order. The dependency structure is exactly the connected
// components of the bipartite account/IP sharing graph — two events can
// race if and only if no chain of shared accounts or shared IPs links
// them. planLanes builds those components with a union-find, then deals
// whole components onto Workers lanes, largest first onto the least
// loaded (greedy LPT). Each lane replays its events strictly in log
// order on its own goroutine; cross-lane interleaving is arbitrary and
// harmless by construction. The same partition serves batch mode: a lane
// flushes its ordered score+outcome stream BatchSize logins at a time
// through /v1/score.batch, and the server walks each stream's lines in
// order.
//
// Lanes do share one clock, though: the engine's IP-fanout tracker evicts
// history more than a day older than the newest day any request has
// reached, so a lane running over a day ahead of another would erase
// history the slower lane still reads. Replay therefore runs one UTC day
// of the log at a time — lanes are planned per day, and every lane of a
// day finishes before the next day starts.

// ReplayConfig parameterizes the cross-check.
type ReplayConfig struct {
	// ChallengeThreshold and BlockThreshold must match the dump's world
	// (auth.DefaultConfig values for study dumps).
	ChallengeThreshold float64
	BlockThreshold     float64
	// Workers is the number of concurrent replay lanes; 0 or 1 replays
	// sequentially. Parity stays exact at any worker count — each day's
	// events are partitioned by connected component of the account/IP
	// sharing graph.
	Workers int
	// BatchSize, when positive, switches to /v1/score.batch with that many
	// logins (score + outcome line pairs) per round trip.
	BatchSize int
	// Progress, when non-nil, is called every ProgressEvery scored events.
	Progress      func(scored, mismatches int)
	ProgressEvery int
}

// ReplayStats is the machine-readable outcome of a replay run.
type ReplayStats struct {
	// Logins is the number of login records in the dump.
	Logins int `json:"logins"`
	// Scored is how many were streamed through the server.
	Scored int `json:"scored"`
	// Skipped counts attempts the simulator never scored (anti-abuse
	// refusals) — excluded from parity by construction.
	Skipped int `json:"skipped"`
	// Mismatches counts events where the served score or verdict diverged
	// from the simulator's logged decision. Zero is the acceptance bar.
	Mismatches int `json:"mismatches"`
	// FirstMismatch describes the divergence earliest in the log.
	FirstMismatch string `json:"first_mismatch,omitempty"`
	// Workers and BatchSize echo the mode this run used.
	Workers   int `json:"workers"`
	BatchSize int `json:"batch_size,omitempty"`
	// HTTPReqs counts HTTP round trips issued: 2 per login unbatched,
	// one per flushed batch in batch mode.
	HTTPReqs int64 `json:"http_requests"`
}

// replayShared is the cross-lane accumulator.
type replayShared struct {
	cfg        ReplayConfig
	logins     []event.Login
	scored     atomic.Int64
	mismatches atomic.Int64
	httpReqs   atomic.Int64
	aborted    atomic.Bool

	mu       sync.Mutex
	firstIdx int // log index of the earliest recorded mismatch
	firstMsg string
	err      error
}

func (sh *replayShared) noteMismatch(i int, served *ScoreResponse, ev *event.Login, expect Verdict) {
	sh.mismatches.Add(1)
	sh.mu.Lock()
	if i < sh.firstIdx {
		sh.firstIdx = i
		sh.firstMsg = fmt.Sprintf(
			"account %d at %s: served score=%v verdict=%s, simulator logged score=%v (verdict %s)",
			ev.Account, ev.Time, served.Score, served.Verdict, ev.RiskScore, expect)
	}
	sh.mu.Unlock()
}

func (sh *replayShared) fail(err error) {
	sh.aborted.Store(true)
	sh.mu.Lock()
	if sh.err == nil {
		sh.err = err
	}
	sh.mu.Unlock()
}

func (sh *replayShared) progress() {
	n := sh.scored.Add(1)
	if sh.cfg.Progress != nil && sh.cfg.ProgressEvery > 0 && n%int64(sh.cfg.ProgressEvery) == 0 {
		sh.mu.Lock()
		sh.cfg.Progress(int(n), int(sh.mismatches.Load()))
		sh.mu.Unlock()
	}
}

// check compares one served decision against the log.
func (sh *replayShared) check(i int, resp *ScoreResponse) {
	ev := &sh.logins[i]
	expect := VerdictFor(ev.RiskScore, sh.cfg.ChallengeThreshold, sh.cfg.BlockThreshold)
	if resp.Score != ev.RiskScore || resp.Verdict != expect {
		sh.noteMismatch(i, resp, ev, expect)
	}
	sh.progress()
}

// Replay runs the cross-check against the server behind c. The returned
// error covers transport failures; verdict divergence is reported in
// ReplayStats.Mismatches, not as an error.
func Replay(st *logstore.Store, c *Client, cfg ReplayConfig) (ReplayStats, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	var rs ReplayStats
	rs.Workers = cfg.Workers
	rs.BatchSize = cfg.BatchSize

	logins := logstore.Select[event.Login](st)
	rs.Logins = len(logins)

	// Anti-abuse refusals never reached the risk gate: a genuine risk
	// block carries its gating score (>= BlockThreshold) in the log.
	idx := make([]int, 0, len(logins))
	for i := range logins {
		if logins[i].Outcome == event.LoginBlocked && logins[i].RiskScore < cfg.BlockThreshold {
			rs.Skipped++
			continue
		}
		idx = append(idx, i)
	}

	sh := &replayShared{cfg: cfg, logins: logins, firstIdx: len(logins)}
	for _, day := range splitDays(logins, idx) {
		var wg sync.WaitGroup
		for _, lane := range planLanes(logins, day, cfg.Workers) {
			if len(lane) == 0 {
				continue
			}
			wg.Add(1)
			go func(lane []int) {
				defer wg.Done()
				if cfg.BatchSize > 0 {
					replayLaneBatched(sh, c, lane)
				} else {
					replayLane(sh, c, lane)
				}
			}(lane)
		}
		wg.Wait()
		if sh.aborted.Load() {
			break
		}
	}

	rs.Scored = int(sh.scored.Load())
	rs.Mismatches = int(sh.mismatches.Load())
	rs.FirstMismatch = sh.firstMsg
	rs.HTTPReqs = sh.httpReqs.Load()
	return rs, sh.err
}

// replayLane streams one lane through /v1/score + /v1/outcome in order.
func replayLane(sh *replayShared, c *Client, lane []int) {
	for _, i := range lane {
		if sh.aborted.Load() {
			return
		}
		ev := &sh.logins[i]
		resp, err := c.Score(ScoreRequest{
			Account:    ev.Account,
			IP:         ev.IP.String(),
			DeviceID:   ev.DeviceID,
			At:         ev.Time,
			PasswordOK: ev.PasswordOK,
		})
		sh.httpReqs.Add(1)
		if err != nil {
			sh.fail(fmt.Errorf("serve: replay score (account %d at %s): %w", ev.Account, ev.Time, err))
			return
		}
		sh.check(i, resp)
		err = c.Outcome(OutcomeRequest{
			Account:  ev.Account,
			IP:       ev.IP.String(),
			DeviceID: ev.DeviceID,
			At:       ev.Time,
			Success:  ev.Outcome == event.LoginSuccess,
		})
		sh.httpReqs.Add(1)
		if err != nil {
			sh.fail(fmt.Errorf("serve: replay outcome (account %d at %s): %w", ev.Account, ev.Time, err))
			return
		}
	}
}

// replayLaneBatched streams one lane through /v1/score.batch, BatchSize
// logins (= 2*BatchSize NDJSON lines) per round trip.
func replayLaneBatched(sh *replayShared, c *Client, lane []int) {
	items := make([]BatchItem, 0, 2*sh.cfg.BatchSize)
	evIdx := make([]int, 0, sh.cfg.BatchSize) // log index per score line

	flush := func() bool {
		if len(items) == 0 {
			return true
		}
		results, err := c.Batch(items)
		sh.httpReqs.Add(1)
		if err != nil {
			sh.fail(fmt.Errorf("serve: replay batch (%d items): %w", len(items), err))
			return false
		}
		// Lines alternate score, outcome, score, outcome, ...
		for k, i := range evIdx {
			sr := results[2*k]
			if sr.Err != "" || sr.Score == nil {
				ev := &sh.logins[i]
				sh.fail(fmt.Errorf("serve: replay batch score (account %d at %s): %s", ev.Account, ev.Time, sr.Err))
				return false
			}
			sh.check(i, sr.Score)
			if ack := results[2*k+1]; ack.Err != "" || !ack.OK {
				ev := &sh.logins[i]
				sh.fail(fmt.Errorf("serve: replay batch outcome (account %d at %s): %s", ev.Account, ev.Time, ack.Err))
				return false
			}
		}
		items = items[:0]
		evIdx = evIdx[:0]
		return true
	}

	for _, i := range lane {
		if sh.aborted.Load() {
			return
		}
		ev := &sh.logins[i]
		ip := ev.IP.String()
		items = append(items, ScoreItem(ScoreRequest{
			Account:    ev.Account,
			IP:         ip,
			DeviceID:   ev.DeviceID,
			At:         ev.Time,
			PasswordOK: ev.PasswordOK,
		}))
		items = append(items, OutcomeItem(OutcomeRequest{
			Account:  ev.Account,
			IP:       ip,
			DeviceID: ev.DeviceID,
			At:       ev.Time,
			Success:  ev.Outcome == event.LoginSuccess,
		}))
		evIdx = append(evIdx, i)
		if len(evIdx) >= sh.cfg.BatchSize {
			if !flush() {
				return
			}
		}
	}
	flush()
}

// splitDays cuts the selected log indices (ascending, so in time order)
// into runs that fall on one UTC day each.
func splitDays(logins []event.Login, idx []int) [][]int {
	utcDay := func(i int) time.Time { return logins[i].Time.UTC().Truncate(24 * time.Hour) }
	var days [][]int
	for len(idx) > 0 {
		day, k := utcDay(idx[0]), 1
		for k < len(idx) && utcDay(idx[k]).Equal(day) {
			k++
		}
		days = append(days, idx[:k])
		idx = idx[k:]
	}
	return days
}

// planLanes partitions the selected log indices (ascending) into at most
// workers lanes such that any two events coupled through a chain of shared
// accounts or shared IPs land in the same lane. Components are assigned
// largest-first to the least-loaded lane; within a lane, indices keep log
// order.
func planLanes(logins []event.Login, idx []int, workers int) [][]int {
	if workers <= 1 || len(idx) == 0 {
		return [][]int{idx}
	}

	// Union-find over account ∪ IP keys.
	uf := newUnionFind()
	accKey := make(map[identity.AccountID]int)
	ipKey := make(map[netip.Addr]int)
	for _, i := range idx {
		ev := &logins[i]
		a, ok := accKey[ev.Account]
		if !ok {
			a = uf.add()
			accKey[ev.Account] = a
		}
		p, ok := ipKey[ev.IP]
		if !ok {
			p = uf.add()
			ipKey[ev.IP] = p
		}
		uf.union(a, p)
	}

	// Component sizes in events.
	compSize := make(map[int]int)
	for _, i := range idx {
		compSize[uf.find(accKey[logins[i].Account])]++
	}

	// Largest component first onto the least-loaded lane (greedy LPT).
	roots := make([]int, 0, len(compSize))
	for r := range compSize {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(a, b int) bool {
		if compSize[roots[a]] != compSize[roots[b]] {
			return compSize[roots[a]] > compSize[roots[b]]
		}
		return roots[a] < roots[b] // determinism across runs
	})
	if workers > len(roots) {
		workers = len(roots)
	}
	laneOf := make(map[int]int, len(roots))
	load := make([]int, workers)
	for _, r := range roots {
		best := 0
		for l := 1; l < workers; l++ {
			if load[l] < load[best] {
				best = l
			}
		}
		laneOf[r] = best
		load[best] += compSize[r]
	}

	lanes := make([][]int, workers)
	for l := range lanes {
		lanes[l] = make([]int, 0, load[l])
	}
	for _, i := range idx {
		l := laneOf[uf.find(accKey[logins[i].Account])]
		lanes[l] = append(lanes[l], i)
	}
	return lanes
}

// unionFind is a grow-only disjoint-set forest with path halving and
// union by size.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind() *unionFind { return &unionFind{} }

func (u *unionFind) add() int {
	n := len(u.parent)
	u.parent = append(u.parent, int32(n))
	u.size = append(u.size, 1)
	return n
}

func (u *unionFind) find(x int) int {
	for int(u.parent[x]) != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = int(u.parent[x])
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	u.size[ra] += u.size[rb]
}
