package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"manualhijack/internal/challenge"
	"manualhijack/internal/event"
	"manualhijack/internal/risk"
	"manualhijack/internal/stream"
)

// Pipeline is the decision interface the HTTP layer serves. Engine is the
// production implementation; tests substitute gated pipelines to exercise
// backpressure and drain deterministically.
type Pipeline interface {
	Score(att risk.Attempt, p *challenge.Principal) Decision
	RecordOutcome(att risk.Attempt, success bool)
}

// ServerConfig tunes the HTTP front-end.
type ServerConfig struct {
	// MaxInFlight bounds concurrently served score/outcome requests — the
	// backpressure queue. Arrivals beyond the bound wait up to QueueWait
	// for a slot, then get 429. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// QueueWait is how long an over-limit request may wait for a slot
	// before 429. 0 rejects immediately — strict open-loop shedding.
	QueueWait time.Duration
	// RequestTimeout aborts a score/outcome request that exceeds it with
	// 503. 0 means DefaultRequestTimeout.
	RequestTimeout time.Duration
	// BatchTimeout is the per-request timeout for /v1/score.batch, which
	// legitimately runs much longer than a single score (hundreds of
	// logins per round trip). 0 means DefaultBatchTimeout.
	BatchTimeout time.Duration
}

// Defaults for ServerConfig zero values.
const (
	DefaultMaxInFlight    = 1024
	DefaultRequestTimeout = 2 * time.Second
	DefaultBatchTimeout   = 60 * time.Second
)

// maxBodyBytes caps a single score/outcome request body, and the client's
// read of a /v1/score reply. The real wire structs are well under 1 KiB;
// the cap only exists so a hostile peer cannot balloon the pooled buffers.
const maxBodyBytes = 1 << 20

// bufPool recycles the request-body and response-encode buffers on the
// score/outcome hot path, so a warmed-up server does zero buffer
// allocations per request.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

// readBody reads body, whose declared length is size (-1 if unknown),
// into buf (growing it as needed) and returns the filled slice. Bodies
// over maxBodyBytes are refused.
func readBody(buf []byte, body io.Reader, size int64) ([]byte, error) {
	if size > maxBodyBytes {
		return nil, errors.New("body too large")
	}
	if n := int(size); n > 0 && cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			if cap(buf) >= maxBodyBytes {
				return nil, errors.New("body too large")
			}
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Server is the riskd HTTP front-end: /v1/score, /v1/score.batch,
// /v1/outcome, /v1/healthz, /v1/statz.
type Server struct {
	pipe    Pipeline
	cfg     ServerConfig
	metrics *Metrics
	sem     chan struct{}
	mux     *http.ServeMux
	// retryAfter is the precomputed Retry-After value for 429 responses,
	// derived from QueueWait: a client that already waited the full queue
	// window should back off at least that long before retrying.
	retryAfter string
	// stream, when set, receives a synthesized login record per scored
	// request and serves live snapshots at /v1/streamz.
	stream *stream.Bus
}

// NewServer wires the HTTP layer around a pipeline.
func NewServer(pipe Pipeline, cfg ServerConfig) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = DefaultBatchTimeout
	}
	s := &Server{
		pipe:       pipe,
		cfg:        cfg,
		metrics:    NewMetrics(),
		sem:        make(chan struct{}, cfg.MaxInFlight),
		mux:        http.NewServeMux(),
		retryAfter: retryAfterHint(cfg.QueueWait),
	}
	// Backpressure sits outside the timeout handler so shed requests cost
	// one channel operation, not a goroutine. A batch occupies one slot —
	// the queue bounds connections doing work, and a batch is one
	// connection's pipelined work.
	s.mux.Handle("POST /v1/score",
		s.withBackpressure(http.TimeoutHandler(http.HandlerFunc(s.handleScore), cfg.RequestTimeout, "request timed out\n")))
	s.mux.Handle("POST /v1/outcome",
		s.withBackpressure(http.TimeoutHandler(http.HandlerFunc(s.handleOutcome), cfg.RequestTimeout, "request timed out\n")))
	s.mux.Handle("POST /v1/score.batch",
		s.withBackpressure(http.TimeoutHandler(http.HandlerFunc(s.handleScoreBatch), cfg.BatchTimeout, "batch timed out\n")))
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/statz", s.handleStatz)
	return s
}

// Metrics exposes the serving counters (read-only snapshots via Snapshot).
func (s *Server) Metrics() *Metrics { return s.metrics }

// SetStream attaches a streaming analysis bus: every scored request (single
// and batch) is synthesized into an event.Login and published, and GET
// /v1/streamz serves live analysis snapshots next to /v1/statz. Call before
// serving; the bus itself serializes concurrent request lanes.
func (s *Server) SetStream(bus *stream.Bus) {
	s.stream = bus
	s.mux.HandleFunc("GET /v1/streamz", s.handleStreamz)
}

func (s *Server) handleStreamz(w http.ResponseWriter, _ *http.Request) {
	snap := s.stream.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}

// publishScore synthesizes the login record a simulated world would have
// logged for this decision and offers it to the stream bus. Actor is left
// empty — ground truth is unknown at serving time — so the actor-filtered
// analyses (Figures 8 and 11) stay quiet on a pure serving feed and the
// funnel tracks the observable stages; replayed dumps carry real actors.
// Out-of-order arrivals across concurrent lanes are dropped and counted by
// the bus, which live snapshots surface as events_dropped.
func (s *Server) publishScore(att risk.Attempt, d Decision) {
	if s.stream == nil {
		return
	}
	outcome := event.LoginSuccess
	switch {
	case d.Verdict == VerdictBlock:
		outcome = event.LoginBlocked
	case d.Challenge != nil && !d.Challenge.Passed:
		outcome = event.LoginChallengeFailed
	case !att.PasswordOK:
		outcome = event.LoginWrongPassword
	}
	s.stream.Publish(event.Login{
		Base:       event.Base{Time: att.At},
		Account:    att.Account,
		IP:         att.IP,
		DeviceID:   att.DeviceID,
		PasswordOK: att.PasswordOK,
		Outcome:    outcome,
		Challenged: d.Verdict == VerdictChallenge,
		RiskScore:  d.Score,
	})
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// withBackpressure bounds in-flight requests: the semaphore's buffer is the
// whole queue, so memory is capped at MaxInFlight goroutines regardless of
// arrival rate; everything beyond waits at most QueueWait and then sheds
// with 429.
func (s *Server) withBackpressure(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			if s.cfg.QueueWait > 0 {
				t := time.NewTimer(s.cfg.QueueWait)
				select {
				case s.sem <- struct{}{}:
					t.Stop()
				case <-t.C:
					s.reject(w)
					return
				case <-r.Context().Done():
					t.Stop()
					s.reject(w)
					return
				}
			} else {
				s.reject(w)
				return
			}
		}
		defer func() { <-s.sem }()
		next.ServeHTTP(w, r)
	})
}

// retryAfterHint derives the 429 Retry-After header from the configured
// queue wait, rounding up to whole seconds with a floor of 1 (the header's
// granularity; an instant-shed server still wants clients to pause).
func retryAfterHint(queueWait time.Duration) string {
	secs := int64((queueWait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Server) reject(w http.ResponseWriter) {
	s.metrics.rejected.Add(1)
	w.Header().Set("Retry-After", s.retryAfter)
	http.Error(w, "overloaded: bounded queue full", http.StatusTooManyRequests)
}

// okJSON is the /v1/outcome reply — the exact bytes the old
// json.Encoder.Encode(map[string]bool{"ok": true}) produced.
var okJSON = []byte("{\"ok\":true}\n")

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	bb := getBuf()
	defer putBuf(bb)
	body, err := readBody((*bb)[:0], r.Body, r.ContentLength)
	if err != nil {
		s.badRequest(w, "bad body: "+err.Error())
		return
	}
	*bb = body[:0]
	var req ScoreRequest
	if err := DecodeScoreRequest(body, &req); err != nil {
		s.badRequest(w, "bad json: "+err.Error())
		return
	}
	att, err := req.Attempt()
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	var p *challenge.Principal
	if req.Principal != nil {
		pr := req.Principal.Principal()
		p = &pr
	}
	d := s.pipe.Score(att, p)
	s.publishScore(att, d)
	resp := ScoreResponse{
		Score:           d.Score,
		Signals:         d.Signals,
		Verdict:         d.Verdict,
		ChallengeMethod: d.ChallengeMethod,
	}
	if d.Challenge != nil {
		resp.ChallengePassed = &d.Challenge.Passed
	}
	s.metrics.observeScore(d, time.Since(start))

	ob := getBuf()
	defer putBuf(ob)
	out := AppendScoreResponse((*ob)[:0], &resp)
	out = append(out, '\n')
	*ob = out[:0]
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

func (s *Server) handleOutcome(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	bb := getBuf()
	defer putBuf(bb)
	body, err := readBody((*bb)[:0], r.Body, r.ContentLength)
	if err != nil {
		s.badRequest(w, "bad body: "+err.Error())
		return
	}
	*bb = body[:0]
	var req OutcomeRequest
	if err := DecodeOutcomeRequest(body, &req); err != nil {
		s.badRequest(w, "bad json: "+err.Error())
		return
	}
	att, err := req.Attempt()
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	s.pipe.RecordOutcome(att, req.Success)
	s.metrics.observeOutcome(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	w.Write(okJSON)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	ob := getBuf()
	defer putBuf(ob)
	out := AppendStatzResponse((*ob)[:0], &snap)
	out = append(out, '\n')
	*ob = out[:0]
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.metrics.badRequests.Add(1)
	http.Error(w, msg, http.StatusBadRequest)
}

// Run serves on ln until ctx is cancelled, then drains: no new connections
// are accepted and in-flight requests get up to drain to finish. A nil
// return means the drain completed cleanly — the exit-0 contract the CI
// smoke asserts.
func (s *Server) Run(ctx context.Context, ln net.Listener, drain time.Duration) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return hs.Shutdown(sctx)
}
