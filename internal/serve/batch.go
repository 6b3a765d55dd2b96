package serve

// batch.go — POST /v1/score.batch: an NDJSON request stream, one decision
// per line, amortizing HTTP framing and syscalls across hundreds of logins
// per round trip.
//
// Each request line is a BatchItem: a score request (the default) or an
// outcome feedback, selected by the "op" field. The response is NDJSON
// too, exactly one line per non-blank request line, in request order:
//
//	score   → the ScoreResponse JSON (same bytes /v1/score would send)
//	outcome → {"ok":true}
//	invalid → {"error":"..."} (counted in bad_requests; the stream
//	          continues — a bad line must not desynchronize the framing)
//
// Items run through the sharded engine strictly in line order on the
// handler goroutine, so a score+outcome pair for the same account keeps
// its order within one stream — the property batched replay leans on.
// Cross-stream concurrency (many clients, many workers) is what exercises
// the shards.
//
// The full response is buffered and written in one shot: the client can
// therefore send the whole batch before reading anything without the two
// sides deadlocking on filled socket buffers, no matter the batch size.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"manualhijack/internal/challenge"
	"manualhijack/internal/identity"
	"manualhijack/internal/jsonx"
)

// BatchOp selects what a BatchItem does.
const (
	BatchOpScore   = "score"
	BatchOpOutcome = "outcome"
)

// BatchItem is one line of a /v1/score.batch request: the union of
// ScoreRequest and OutcomeRequest plus the discriminating "op" field
// (empty means "score").
type BatchItem struct {
	Op         string             `json:"op,omitempty"`
	Account    identity.AccountID `json:"account"`
	IP         string             `json:"ip"`
	DeviceID   string             `json:"device_id,omitempty"`
	At         time.Time          `json:"at"`
	PasswordOK bool               `json:"password_ok,omitempty"`
	Principal  *PrincipalWire     `json:"principal,omitempty"`
	Success    bool               `json:"success,omitempty"`
}

// ScoreItem wraps a score request as a batch line.
func ScoreItem(r ScoreRequest) BatchItem {
	return BatchItem{Account: r.Account, IP: r.IP, DeviceID: r.DeviceID,
		At: r.At, PasswordOK: r.PasswordOK, Principal: r.Principal}
}

// OutcomeItem wraps an outcome feedback as a batch line.
func OutcomeItem(r OutcomeRequest) BatchItem {
	return BatchItem{Op: BatchOpOutcome, Account: r.Account, IP: r.IP,
		DeviceID: r.DeviceID, At: r.At, Success: r.Success}
}

// AppendBatchItem appends r's JSON encoding, byte-identical to
// json.Marshal.
func AppendBatchItem(b []byte, r *BatchItem) []byte {
	b = append(b, '{')
	if r.Op != "" {
		b = append(b, `"op":`...)
		b = jsonx.AppendString(b, r.Op)
		b = append(b, ',')
	}
	b = append(b, `"account":`...)
	b = strconv.AppendInt(b, int64(r.Account), 10)
	b = append(b, `,"ip":`...)
	b = jsonx.AppendString(b, r.IP)
	if r.DeviceID != "" {
		b = append(b, `,"device_id":`...)
		b = jsonx.AppendString(b, r.DeviceID)
	}
	b = append(b, `,"at":`...)
	b = jsonx.AppendTime(b, r.At)
	if r.PasswordOK {
		b = append(b, `,"password_ok":true`...)
	}
	if r.Principal != nil {
		b = append(b, `,"principal":`...)
		b = appendPrincipal(b, r.Principal)
	}
	if r.Success {
		b = append(b, `,"success":true`...)
	}
	return append(b, '}')
}

// DecodeBatchItem parses one NDJSON line; same decode contract as
// DecodeScoreRequest.
func DecodeBatchItem(data []byte, r *BatchItem) error {
	d := &decodeState{jsonx.NewScanner(data)}
	return d.object(func(key []byte) error {
		key = foldRunes(key)
		switch {
		case foldEq(key, "op"):
			return d.fieldString(&r.Op, "op")
		case foldEq(key, "account"):
			return d.fieldInt32((*int32)(&r.Account), "account")
		case foldEq(key, "ip"):
			return d.fieldString(&r.IP, "ip")
		case foldEq(key, "device_id"):
			return d.fieldString(&r.DeviceID, "device_id")
		case foldEq(key, "at"):
			return d.fieldTime(&r.At)
		case foldEq(key, "password_ok"):
			return d.fieldBool(&r.PasswordOK, "password_ok")
		case foldEq(key, "principal"):
			return d.decodePrincipal(&r.Principal)
		case foldEq(key, "success"):
			return d.fieldBool(&r.Success, "success")
		default:
			return d.Skip()
		}
	})
}

// maxBatchLineBytes bounds one NDJSON line; a longer line aborts the
// stream (the framing is gone at that point).
const maxBatchLineBytes = 1 << 16

// batchReaderPool recycles the line readers for /v1/score.batch.
var batchReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, maxBatchLineBytes) },
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	br := batchReaderPool.Get().(*bufio.Reader)
	br.Reset(r.Body)
	defer func() {
		br.Reset(nil)
		batchReaderPool.Put(br)
	}()
	ob := getBuf()
	defer putBuf(ob)
	out := (*ob)[:0]

	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			out = appendBatchError(out, fmt.Sprintf("line longer than %d bytes", maxBatchLineBytes))
			s.metrics.badRequests.Add(1)
			break
		}
		if err != nil && err != io.EOF {
			out = appendBatchError(out, "read: "+err.Error())
			s.metrics.badRequests.Add(1)
			break
		}
		atEOF := err == io.EOF
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			out = s.serveBatchLine(out, trimmed)
		}
		if atEOF {
			break
		}
	}

	*ob = out[:0]
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(out)
}

// serveBatchLine runs one batch item and appends its response line.
func (s *Server) serveBatchLine(out []byte, line []byte) []byte {
	start := time.Now()
	var item BatchItem
	if err := DecodeBatchItem(line, &item); err != nil {
		s.metrics.badRequests.Add(1)
		return appendBatchError(out, "bad json: "+err.Error())
	}
	switch item.Op {
	case "", BatchOpScore:
		req := ScoreRequest{Account: item.Account, IP: item.IP, DeviceID: item.DeviceID,
			At: item.At, PasswordOK: item.PasswordOK, Principal: item.Principal}
		att, err := req.Attempt()
		if err != nil {
			s.metrics.badRequests.Add(1)
			return appendBatchError(out, err.Error())
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
		out = AppendScoreResponse(out, &resp)
		return append(out, '\n')
	case BatchOpOutcome:
		req := OutcomeRequest{Account: item.Account, IP: item.IP, DeviceID: item.DeviceID,
			At: item.At, Success: item.Success}
		att, err := req.Attempt()
		if err != nil {
			s.metrics.badRequests.Add(1)
			return appendBatchError(out, err.Error())
		}
		s.pipe.RecordOutcome(att, req.Success)
		s.metrics.observeOutcome(time.Since(start))
		return append(out, okJSON...)
	default:
		s.metrics.badRequests.Add(1)
		return appendBatchError(out, fmt.Sprintf("unknown op %q", item.Op))
	}
}

func appendBatchError(out []byte, msg string) []byte {
	out = append(out, `{"error":`...)
	out = jsonx.AppendString(out, msg)
	return append(out, '}', '\n')
}
