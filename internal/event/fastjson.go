package event

// JSON reading for the hot dump/segment wire path. The spill-to-disk
// segmented store encodes every record once on the build path and decodes
// it once per analysis pass; with encoding/json that reflection cost
// dominates the whole study (BENCH_7's 2.24× spill tax). The JSON text
// format itself is internal/jsonx's; this file adds the netip.Addr
// encoder and jsonReader, the canonical-order reader DecodeLineFast drives.

import (
	"net/netip"
	"strconv"
	"time"

	"manualhijack/internal/jsonx"
)

// appendAddr appends ip as its quoted text form ("" for the zero Addr),
// matching netip.Addr.MarshalText under encoding/json. Only an IPv6 zone
// can hold bytes JSON escapes, so only a zoned address takes the
// allocating path through jsonx.AppendString.
func appendAddr(dst []byte, ip netip.Addr) []byte {
	if ip.Zone() != "" {
		return jsonx.AppendString(dst, ip.String())
	}
	dst = append(dst, '"')
	if ip.IsValid() {
		dst = ip.AppendTo(dst)
	}
	return append(dst, '"')
}

// jsonReader reads one canonical NDJSON line over a jsonx.Scanner. The
// first error sticks: ok turns false and every later read is a no-op
// returning a zero value, so DecodeLineFast reports ok=false and the
// caller falls back to encoding/json, which owns the error semantics. The
// scanner checks every token as encoding/json does, so a line the reader
// accepts is one encoding/json accepts, decoding to the same record
// (FuzzDecodeLineFast).
type jsonReader struct {
	s  jsonx.Scanner
	ok bool
}

func newJSONReader(line []byte) jsonReader {
	return jsonReader{s: jsonx.NewScanner(line), ok: true}
}

func (r *jsonReader) fail() { r.ok = false }

// check records err and reports whether the line is still readable.
func (r *jsonReader) check(err error) bool {
	if err != nil {
		r.ok = false
	}
	return r.ok
}

// expect consumes c or fails.
func (r *jsonReader) expect(c byte) {
	if r.ok {
		r.check(r.s.Expect(c))
	}
}

// peek reports the next significant byte without consuming it (0 at the
// end of the line or after a failure).
func (r *jsonReader) peek() byte {
	if !r.ok {
		return 0
	}
	c, _ := r.s.Peek()
	return c
}

// str reads a string value.
func (r *jsonReader) str() string {
	if !r.ok {
		return ""
	}
	raw, escaped, err := r.s.ScanString()
	if !r.check(err) {
		return ""
	}
	return jsonx.Unquote(raw, escaped)
}

// intVal reads an integer field with the given bit size.
func (r *jsonReader) intVal(bits int) int64 {
	if !r.ok {
		return 0
	}
	tok, err := r.s.ScanNumber()
	if !r.check(err) {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	r.check(err)
	return v
}

// floatVal reads a float64 field.
func (r *jsonReader) floatVal() float64 {
	if !r.ok {
		return 0
	}
	tok, err := r.s.ScanNumber()
	if !r.check(err) {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	r.check(err)
	return v
}

// boolVal reads true or false.
func (r *jsonReader) boolVal() bool {
	if !r.ok {
		return false
	}
	c, err := r.s.ScanLiteral()
	if r.check(err) && c == 'n' {
		r.fail()
	}
	return c == 't'
}

// timeVal reads a timestamp through time.Time.UnmarshalJSON, handing it
// the raw value as encoding/json does.
func (r *jsonReader) timeVal() (t time.Time) {
	if !r.ok {
		return t
	}
	raw, err := r.s.Raw()
	if r.check(err) {
		r.check(t.UnmarshalJSON(raw))
	}
	return t
}

// addrVal reads a quoted IP address ("" meaning the zero Addr).
func (r *jsonReader) addrVal() netip.Addr {
	s := r.str()
	if !r.ok || s == "" {
		return netip.Addr{}
	}
	ip, err := netip.ParseAddr(s)
	r.check(err)
	return ip
}
