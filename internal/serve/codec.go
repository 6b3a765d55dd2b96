package serve

// codec.go — the hand-rolled JSON wire codec for the serve hot path.
//
// encoding/json costs the score path more than the decision pipeline it
// wraps: reflection-driven encoding allocates per field, the streaming
// decoder allocates per token, and together they put the handler an order
// of magnitude above the 1.33 µs in-process pipeline (BENCH_5). This file
// replaces both directions with append-based encoders and a single-pass
// scanner over a pooled body buffer. The JSON text itself (escaping,
// number and time formatting, the validating scanner) is internal/jsonx;
// this file holds the wire struct layouts and encoding/json's rules for
// mapping JSON onto them, under two contracts the tests in codec_test.go
// enforce:
//
//   - Byte-level encode equivalence: for every wire struct, Append*
//     produces exactly the bytes json.Marshal produces — same field order,
//     same omitempty behavior, jsonx's float and string formatting — so
//     clients cannot tell the codecs apart and either side can be swapped
//     independently.
//   - Decode parity: Decode* accepts exactly what a json.Decoder.Decode
//     into the same struct accepts (case-folded keys, unknown fields,
//     null semantics, duplicate-key last-wins, ignored trailing data,
//     the 10000-level nesting limit) and rejects what it rejects, yielding
//     an identical struct on success.
//
// Allocation discipline: decoding a ScoreRequest costs one allocation per
// retained string (IP, DeviceID — they outlive the pooled body buffer
// because the analyzer's history maps key on them) plus one inside
// time.Parse; encoding appends into a caller-supplied (pooled) buffer and
// allocates nothing. TestWireAllocFences pins the decode+encode round
// trip at ≤ 4 allocs.
//
// Known, deliberate divergence from encoding/json, not observable on the
// wire: a NaN or ±Inf float encodes as jsonx.AppendFloat's non-JSON
// NaN/+Inf/-Inf token instead of failing the encode (the wire structs
// never carry one — scores live in [0,1], latencies are finite).

import (
	"bytes"
	"strconv"
	"time"
	"unicode/utf8"

	"manualhijack/internal/jsonx"
)

// ---------------------------------------------------------------------------
// Wire-struct encoders
// ---------------------------------------------------------------------------

// AppendScoreResponse appends r's JSON encoding — the bytes json.Marshal
// would produce — and returns the extended buffer. Zero allocations
// beyond buffer growth.
func AppendScoreResponse(b []byte, r *ScoreResponse) []byte {
	b = append(b, `{"score":`...)
	b = jsonx.AppendFloat(b, r.Score)
	b = append(b, `,"signals":{"NewCountry":`...)
	b = jsonx.AppendBool(b, r.Signals.NewCountry)
	b = append(b, `,"ImpossibleHop":`...)
	b = jsonx.AppendBool(b, r.Signals.ImpossibleHop)
	b = append(b, `,"NewDevice":`...)
	b = jsonx.AppendBool(b, r.Signals.NewDevice)
	b = append(b, `,"IPFanout":`...)
	b = jsonx.AppendFloat(b, r.Signals.IPFanout)
	b = append(b, `,"RecentFailures":`...)
	b = jsonx.AppendFloat(b, r.Signals.RecentFailures)
	b = append(b, `},"verdict":`...)
	b = jsonx.AppendString(b, string(r.Verdict))
	if r.ChallengeMethod != "" {
		b = append(b, `,"challenge_method":`...)
		b = jsonx.AppendString(b, string(r.ChallengeMethod))
	}
	if r.ChallengePassed != nil {
		b = append(b, `,"challenge_passed":`...)
		b = jsonx.AppendBool(b, *r.ChallengePassed)
	}
	return append(b, '}')
}

// AppendStatzResponse appends r's JSON encoding, matching json.Marshal
// (verdict map keys in sorted order).
func AppendStatzResponse(b []byte, r *StatzResponse) []byte {
	b = append(b, `{"uptime_s":`...)
	b = jsonx.AppendFloat(b, r.UptimeS)
	b = append(b, `,"score_requests":`...)
	b = strconv.AppendInt(b, r.Score, 10)
	b = append(b, `,"outcome_requests":`...)
	b = strconv.AppendInt(b, r.Outcome, 10)
	b = append(b, `,"rejected_429":`...)
	b = strconv.AppendInt(b, r.Rejected, 10)
	b = append(b, `,"bad_requests":`...)
	b = strconv.AppendInt(b, r.BadRequests, 10)
	b = append(b, `,"verdicts":`...)
	b = appendVerdictMap(b, r.Verdicts)
	b = append(b, `,"challenges_run":`...)
	b = strconv.AppendInt(b, r.ChallengesRun, 10)
	b = append(b, `,"latency":{"n":`...)
	b = strconv.AppendInt(b, int64(r.Latency.N), 10)
	b = append(b, `,"p50_us":`...)
	b = jsonx.AppendFloat(b, r.Latency.P50us)
	b = append(b, `,"p95_us":`...)
	b = jsonx.AppendFloat(b, r.Latency.P95us)
	b = append(b, `,"p99_us":`...)
	b = jsonx.AppendFloat(b, r.Latency.P99us)
	b = append(b, `,"max_us":`...)
	b = jsonx.AppendFloat(b, r.Latency.MaxUs)
	return append(b, `}}`...)
}

func appendVerdictMap(b []byte, m map[Verdict]int64) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	// encoding/json emits map keys sorted; the verdict space is tiny, so an
	// insertion sort over a stack buffer keeps this allocation-free.
	var keys [8]Verdict
	n := 0
	for k := range m {
		if n == len(keys) {
			break // cannot happen with the three defined verdicts
		}
		keys[n] = k
		n++
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	b = append(b, '{')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonx.AppendString(b, string(keys[i]))
		b = append(b, ':')
		b = strconv.AppendInt(b, m[keys[i]], 10)
	}
	return append(b, '}')
}

// AppendScoreRequest appends r's JSON encoding — the client-side mirror of
// DecodeScoreRequest, byte-identical to json.Marshal.
func AppendScoreRequest(b []byte, r *ScoreRequest) []byte {
	b = append(b, `{"account":`...)
	b = strconv.AppendInt(b, int64(r.Account), 10)
	b = append(b, `,"ip":`...)
	b = jsonx.AppendString(b, r.IP)
	if r.DeviceID != "" {
		b = append(b, `,"device_id":`...)
		b = jsonx.AppendString(b, r.DeviceID)
	}
	b = append(b, `,"at":`...)
	b = jsonx.AppendTime(b, r.At)
	b = append(b, `,"password_ok":`...)
	b = jsonx.AppendBool(b, r.PasswordOK)
	if r.Principal != nil {
		b = append(b, `,"principal":`...)
		b = appendPrincipal(b, r.Principal)
	}
	return append(b, '}')
}

func appendPrincipal(b []byte, p *PrincipalWire) []byte {
	b = append(b, '{')
	first := true
	if len(p.Phones) > 0 {
		b = append(b, `"phones":[`...)
		for i, ph := range p.Phones {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonx.AppendString(b, ph)
		}
		b = append(b, ']')
		first = false
	}
	if p.KnowledgeSkill != 0 {
		if !first {
			b = append(b, ',')
		}
		b = append(b, `"knowledge_skill":`...)
		b = jsonx.AppendFloat(b, p.KnowledgeSkill)
	}
	return append(b, '}')
}

// AppendOutcomeRequest appends r's JSON encoding, byte-identical to
// json.Marshal.
func AppendOutcomeRequest(b []byte, r *OutcomeRequest) []byte {
	b = append(b, `{"account":`...)
	b = strconv.AppendInt(b, int64(r.Account), 10)
	b = append(b, `,"ip":`...)
	b = jsonx.AppendString(b, r.IP)
	if r.DeviceID != "" {
		b = append(b, `,"device_id":`...)
		b = jsonx.AppendString(b, r.DeviceID)
	}
	b = append(b, `,"at":`...)
	b = jsonx.AppendTime(b, r.At)
	b = append(b, `,"success":`...)
	b = jsonx.AppendBool(b, r.Success)
	return append(b, '}')
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

// decodeState applies encoding/json's struct rules over a jsonx.Scanner,
// which owns the JSON grammar. Like json.Decoder.Decode, the decoders stop
// after the first complete value and ignore anything behind it.
type decodeState struct{ jsonx.Scanner }

// foldEq reports whether key names the field name (lower-case ASCII)
// under ASCII case folding. Callers pass keys through foldRunes first.
func foldEq(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// foldRunes maps U+212A KELVIN SIGN to k and U+017F LONG S to s, the only
// non-ASCII runes whose Unicode case folding, which encoding/json applies
// to keys, reaches an ASCII letter. An ASCII key is returned as is.
func foldRunes(key []byte) []byte {
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return foldNonASCII(key)
		}
	}
	return key
}

// foldNonASCII is foldRunes' slow path, kept apart so foldRunes inlines
// into the decoders' per-key hot path.
func foldNonASCII(key []byte) []byte {
	key = bytes.ReplaceAll(key, []byte("\u212a"), []byte("k"))
	return bytes.ReplaceAll(key, []byte("\u017f"), []byte("s"))
}

// null consumes a null literal (the caller peeked 'n').
func (d *decodeState) null() error {
	_, err := d.ScanLiteral()
	return err
}

// fieldString decodes a string value into dst. JSON null leaves dst
// unchanged, as encoding/json does for non-pointer strings.
func (d *decodeState) fieldString(dst *string, name string) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	switch c {
	case '"':
		raw, escaped, err := d.ScanString()
		if err != nil {
			return err
		}
		*dst = jsonx.Unquote(raw, escaped)
		return nil
	case 'n':
		return d.null()
	default:
		return d.Errorf("cannot unmarshal value into field %s of type string", name)
	}
}

// fieldBool decodes a bool value into dst; null leaves it unchanged.
func (d *decodeState) fieldBool(dst *bool, name string) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	switch c {
	case 't', 'f', 'n':
		lit, err := d.ScanLiteral()
		if err != nil {
			return err
		}
		if lit != 'n' {
			*dst = lit == 't'
		}
		return nil
	default:
		return d.Errorf("cannot unmarshal value into field %s of type bool", name)
	}
}

// number scans a number field's token; ok is false for null, which leaves
// the field unchanged.
func (d *decodeState) number(typ, name string) (tok []byte, ok bool, err error) {
	c, err := d.Peek()
	if err != nil {
		return nil, false, err
	}
	switch c {
	case 'n':
		return nil, false, d.null()
	case '"', 't', 'f', '{', '[':
		return nil, false, d.Errorf("cannot unmarshal value into field %s of type %s", name, typ)
	}
	tok, err = d.ScanNumber()
	return tok, err == nil, err
}

// fieldInt32 decodes an integer into dst; null leaves it unchanged.
func (d *decodeState) fieldInt32(dst *int32, name string) error {
	tok, ok, err := d.number("int32", name)
	if !ok {
		return err
	}
	// strconv's param does not escape, so string(tok) stays on the stack.
	v, err := strconv.ParseInt(string(tok), 10, 32)
	if err != nil {
		return d.Errorf("cannot unmarshal number %s into field %s of type int32", tok, name)
	}
	*dst = int32(v)
	return nil
}

// fieldFloat decodes a float64 into dst; null leaves it unchanged.
func (d *decodeState) fieldFloat(dst *float64, name string) error {
	tok, ok, err := d.number("float64", name)
	if !ok {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.Errorf("cannot unmarshal number %s into field %s of type float64", tok, name)
	}
	*dst = v
	return nil
}

// fieldTime decodes a time.Time via its UnmarshalJSON, handing it the raw
// value exactly as encoding/json does (null is a no-op inside
// time.UnmarshalJSON itself).
func (d *decodeState) fieldTime(dst *time.Time) error {
	raw, err := d.Raw()
	if err != nil {
		return err
	}
	return dst.UnmarshalJSON(raw)
}

// object decodes a struct: field is called with the cursor on each value
// and must consume it. A null is accepted as a no-op (the json.Decoder
// contract for struct targets).
func (d *decodeState) object(field func(key []byte) error) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.null()
	case '{':
		return d.Object(field)
	}
	return d.Errorf("cannot unmarshal non-object value")
}

// decodePrincipal parses a PrincipalWire value, honoring encoding/json's
// pointer-null semantics: null stores nil, an object allocates.
func (d *decodeState) decodePrincipal(dst **PrincipalWire) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		*dst = nil
		return d.null()
	}
	p := *dst
	if p == nil {
		p = &PrincipalWire{}
	}
	err = d.object(func(key []byte) error {
		key = foldRunes(key)
		switch {
		case foldEq(key, "phones"):
			return d.decodeStringSlice(&p.Phones)
		case foldEq(key, "knowledge_skill"):
			return d.fieldFloat(&p.KnowledgeSkill, "knowledge_skill")
		default:
			return d.Skip()
		}
	})
	if err != nil {
		return err
	}
	*dst = p
	return nil
}

// decodeStringSlice parses a []string with encoding/json's conventions:
// null stores nil, [] an empty non-nil slice, and elements decode in place
// over the old backing array, so a null element keeps whatever string its
// slot held (nothing, in a fresh slice: "").
func (d *decodeState) decodeStringSlice(dst *[]string) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		*dst = nil
		return d.null()
	}
	if c != '[' {
		return d.Errorf("cannot unmarshal non-array into []string")
	}
	out := (*dst)[:0]
	if out == nil {
		out = []string{}
	}
	err = d.Array(func() error {
		var s string
		if len(out) < cap(out) {
			s = out[:len(out)+1][len(out)]
		}
		err := d.fieldString(&s, "phones")
		out = append(out, s)
		return err
	})
	*dst = out
	return err
}

// DecodeScoreRequest parses data into r with the semantics of
// json.Decoder.Decode: unknown fields are skipped (but validated), keys
// match case-insensitively, null fields are no-ops, duplicate keys take
// the last value, and trailing data after the first value is ignored.
func DecodeScoreRequest(data []byte, r *ScoreRequest) error {
	d := &decodeState{jsonx.NewScanner(data)}
	return d.object(func(key []byte) error {
		key = foldRunes(key)
		switch {
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
		default:
			return d.Skip()
		}
	})
}

// DecodeOutcomeRequest parses data into r; same contract as
// DecodeScoreRequest.
func DecodeOutcomeRequest(data []byte, r *OutcomeRequest) error {
	d := &decodeState{jsonx.NewScanner(data)}
	return d.object(func(key []byte) error {
		key = foldRunes(key)
		switch {
		case foldEq(key, "account"):
			return d.fieldInt32((*int32)(&r.Account), "account")
		case foldEq(key, "ip"):
			return d.fieldString(&r.IP, "ip")
		case foldEq(key, "device_id"):
			return d.fieldString(&r.DeviceID, "device_id")
		case foldEq(key, "at"):
			return d.fieldTime(&r.At)
		case foldEq(key, "success"):
			return d.fieldBool(&r.Success, "success")
		default:
			return d.Skip()
		}
	})
}
