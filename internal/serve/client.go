package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// defaultClient is the fallback *http.Client. http.DefaultClient's
// transport caps idle connections at 2 per host (the net/http default), so
// anything more concurrent than 2 workers hammering one riskd constantly
// re-dials — exactly the path concurrent replay saturates. This transport
// keeps enough idle connections around for every worker riskload can
// realistically run, and skips the HTTP/2 upgrade probe (riskd speaks
// plain HTTP/1.1 over loopback).
var (
	defaultClientOnce sync.Once
	defaultClient     *http.Client
)

// DefaultTransportConns is the idle-connection budget of the default
// client — comfortably above any -workers value riskload uses.
const DefaultTransportConns = 256

func sharedClient() *http.Client {
	defaultClientOnce.Do(func() {
		defaultClient = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        DefaultTransportConns,
				MaxIdleConnsPerHost: DefaultTransportConns,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	})
	return defaultClient
}

// Client is a typed HTTP client for a riskd server. It is safe for
// concurrent use (http.Client is).
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8077".
	Base string
	// HTTP is the underlying client; nil means a shared client whose
	// transport is tuned for many concurrent workers against one host
	// (MaxIdleConnsPerHost = DefaultTransportConns, vs http.DefaultClient's
	// 2, which thrashes the dial path under concurrent replay).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return sharedClient()
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// post posts body and returns the 200 reply, whose body the caller must
// close; any other status comes back as a *StatusError. The body buffer is
// owned by the caller and free for reuse once post returns.
func (c *Client) post(path, contentType string, body []byte) (*http.Response, error) {
	r, err := c.http().Post(c.url(path), contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		defer r.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 512))
		return nil, &StatusError{Code: r.StatusCode, Msg: strings.TrimSpace(string(msg))}
	}
	return r, nil
}

// StatusError is a non-200 reply.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: http %d: %s", e.Code, e.Msg)
}

// IsRejected reports whether err is a 429 backpressure shed.
func IsRejected(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == http.StatusTooManyRequests
}

// clientBufPool recycles the client's request-encode and reply-read
// buffers.
var clientBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// Score submits one attempt for scoring.
func (c *Client) Score(req ScoreRequest) (*ScoreResponse, error) {
	bb := clientBufPool.Get().(*[]byte)
	defer clientBufPool.Put(bb)
	body := AppendScoreRequest((*bb)[:0], &req)
	r, err := c.post("/v1/score", "application/json", body)
	*bb = body[:0]
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	rb := clientBufPool.Get().(*[]byte)
	defer clientBufPool.Put(rb)
	reply, err := readBody((*rb)[:0], r.Body, r.ContentLength)
	if err != nil {
		return nil, err
	}
	*rb = reply[:0]
	resp := new(ScoreResponse)
	if err := DecodeScoreResponse(reply, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Outcome feeds back a final decision. The ack is read to EOF, bounded as
// a score reply is, so the connection goes back to the client's pool for
// the next request instead of being closed.
func (c *Client) Outcome(req OutcomeRequest) error {
	bb := clientBufPool.Get().(*[]byte)
	defer clientBufPool.Put(bb)
	body := AppendOutcomeRequest((*bb)[:0], &req)
	r, err := c.post("/v1/outcome", "application/json", body)
	*bb = body[:0]
	if err != nil {
		return err
	}
	defer r.Body.Close()
	rb := clientBufPool.Get().(*[]byte)
	defer clientBufPool.Put(rb)
	ack, err := readBody((*rb)[:0], r.Body, r.ContentLength)
	if err != nil {
		return err
	}
	*rb = ack[:0]
	return nil
}

// BatchResult is one line of a /v1/score.batch reply.
type BatchResult struct {
	// Score is set for score items.
	Score *ScoreResponse
	// OK is true for acknowledged outcome items.
	OK bool
	// Err carries the server's per-line error, empty on success.
	Err string
}

// Batch streams items through POST /v1/score.batch and returns one result
// per item, in order. A transport-level failure (or a line-count mismatch,
// which means the stream desynchronized) is returned as an error; per-item
// failures come back in BatchResult.Err.
func (c *Client) Batch(items []BatchItem) ([]BatchResult, error) {
	bb := clientBufPool.Get().(*[]byte)
	body := (*bb)[:0]
	for i := range items {
		body = AppendBatchItem(body, &items[i])
		body = append(body, '\n')
	}
	r, err := c.post("/v1/score.batch", "application/x-ndjson", body)
	*bb = body[:0]
	clientBufPool.Put(bb)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()

	results := make([]BatchResult, 0, len(items))
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(nil, maxBatchReplyBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		res, err := decodeBatchReply(line)
		if err != nil {
			return nil, fmt.Errorf("serve: batch: bad response line %q: %w", line, err)
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: batch: reading response: %w", err)
	}
	if len(results) != len(items) {
		return nil, fmt.Errorf("serve: batch: sent %d items, got %d response lines (stream desynchronized)",
			len(items), len(results))
	}
	return results, nil
}

// maxBatchReplyBytes bounds one /v1/score.batch reply line. An error line
// may quote part of its request line, which holds at most
// maxBatchLineBytes, and JSON escaping can grow a byte to six.
const maxBatchReplyBytes = 8 * maxBatchLineBytes

// Statz fetches the serving counters.
func (c *Client) Statz() (*StatzResponse, error) {
	r, err := c.http().Get(c.url("/v1/statz"))
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	var resp StatzResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// WaitHealthy polls /v1/healthz until the server answers or ctx expires.
func (c *Client) WaitHealthy(ctx context.Context) error {
	for {
		r, err := c.http().Get(c.url("/v1/healthz"))
		if err == nil {
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: server not healthy: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}
