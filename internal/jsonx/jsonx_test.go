package jsonx_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"manualhijack/internal/jsonx"
)

// nastyRunes feeds the string generator every escaping regime AppendString
// must match: quotes, backslashes, the short escapes, other control bytes,
// the HTML trio, U+2028/U+2029, multi-byte runes, and (via raw bytes in
// randString) invalid UTF-8.
var nastyRunes = []rune{'a', 'Z', '0', ' ', '"', '\\', '/', '\b', '\f', '\n', '\r', '\t',
	0x00, 0x01, 0x1f, 0x7f, '<', '>', '&', 'é', 'Ω', '語', 0x2028, 0x2029, 0xfffd, 0x1f600}

func randString(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(12); n > 0; n-- {
		switch rng.Intn(16) {
		case 0:
			b = append(b, 0xff) // never valid in UTF-8
		case 1:
			b = append(b, 0xe2, 0x80) // truncated three-byte rune
		default:
			b = append(b, string(nastyRunes[rng.Intn(len(nastyRunes))])...)
		}
	}
	return string(b)
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(1000) - 500)
	default:
		// Spread across magnitudes so both the %f and %e regimes (and the
		// exponent trim) are exercised.
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	}
}

var zones = []*time.Location{time.UTC, time.FixedZone("", 5*3600+1800), time.FixedZone("PDT", -7*3600),
	time.FixedZone("", 23*3600+59*60)}

func randTime(rng *rand.Rand) time.Time {
	t := time.Unix(rng.Int63n(253402300799), rng.Int63n(1e9))
	if rng.Intn(4) == 0 {
		t = t.Truncate(time.Second)
	}
	return t.In(zones[rng.Intn(len(zones))])
}

// TestEncodeEquivalence pins every appender to encoding/json byte for byte.
func TestEncodeEquivalence(t *testing.T) {
	check := func(got []byte, v any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal(%#v): %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode mismatch for %#v:\njsonx %q\njson  %q", v, got, want)
		}
	}
	for _, s := range []string{"", "\b\f", "\x00\x1f\x7f", "<a href=\"x\">&amp;</a>", "\xff", "\xed\xa0\x80",
		"a\U00002028b\U00002029c", "\U0001f600\U0000fffd"} {
		check(jsonx.AppendString(nil, s), s)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.999999e-7, 1e20, 1e21, 1.5e-10,
		-2.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789012345678} {
		check(jsonx.AppendFloat(nil, f), f)
	}
	check(jsonx.AppendBool(nil, true), true)
	check(jsonx.AppendBool(nil, false), false)
	for _, tm := range []time.Time{{}, time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2012, 11, 2, 9, 30, 15, 120000000, zones[1])} {
		check(jsonx.AppendTime(nil, tm), tm)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		s := randString(rng)
		check(jsonx.AppendString(nil, s), s)
		f := randFloat(rng)
		check(jsonx.AppendFloat(nil, f), f)
		tm := randTime(rng)
		check(jsonx.AppendTime(nil, tm), tm)
	}
}

// TestNonFiniteFloats pins the NaN/±Inf contract: IsFinite says no,
// encoding/json refuses the value, and the token AppendFloat writes in its
// place is no JSON any reader (this Scanner included) accepts.
func TestNonFiniteFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if jsonx.IsFinite(f) {
			t.Errorf("IsFinite(%v) = true", f)
		}
		if _, err := json.Marshal(f); err == nil {
			t.Errorf("encoding/json encoded %v", f)
		}
		out := jsonx.AppendFloat(nil, f)
		if want := strconv.FormatFloat(f, 'f', -1, 64); string(out) != want {
			t.Errorf("AppendFloat(%v) = %q, want %q", f, out, want)
		}
		if json.Valid(out) || valid(out) {
			t.Errorf("%q accepted as JSON", out)
		}
	}
	if !jsonx.IsFinite(math.MaxFloat64) || !jsonx.IsFinite(0) {
		t.Error("IsFinite rejected a finite value")
	}
}

// valid reports whether the Scanner reads in as exactly one JSON value.
func valid(in []byte) bool {
	s := jsonx.NewScanner(in)
	return s.Skip() == nil && s.AtEnd()
}

// nest wraps inner in n levels of open/close.
func nest(open, inner, close string, n int) string {
	return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
}

// scanCorpus holds the grammar's edge cases: the number grammar, literals,
// escapes, raw control bytes, structure, and the nesting limit.
func scanCorpus() []string {
	return []string{
		``, ` `, `"`, `[`, `{`, `]`, `}`, `:`, `,`,
		// Numbers.
		`0`, `-0`, `01`, `00`, `+1`, `.5`, `1.`, `1.5`, `-1.0e-0`, `1e5`, `1E+5`, `1e-5`, `1e`, `1e+`, `-`,
		`--1`, `0x1`, `1.5e3.2`, `123456789012345678901234567890`, `1 2`, `NaN`, `Infinity`, `+Inf`, `-Inf`,
		// Literals.
		`true`, `false`, `null`, `tru`, `nul`, `truex`, `True`, `nulll`, `[true,false,null]`,
		// Strings and escapes.
		`""`, `"abc"`, "\"\\b\\f\\n\\r\\t\\/\\\\\\\"\"", "\"a\\u00e9b\"", "\"\\ud83d\\ude00\"", "\"\\ud800\"",
		"\"\\ud800\\u0041\"", "\"\\udc00\"", "\"\\ud800\\ud800\"", "\"\\uD83D\\uDE00\"", "\"\\u12\"",
		"\"\\u12zz\"", "\"\\x\"", "\"\\", "\"\\u", "\"a\x01b\"", "\"\x1f\"", "\"\x7f\"", "\"\xff\"",
		"\"\xc3\"", "\"\xed\xa0\x80\"", "\"\t\"",
		// Structure.
		`{}`, `[]`, `{"a":1}`, `{"a":1,}`, `[1,]`, `[,1]`, `{"a" 1}`, `{"a":1 "b":2}`, `{,}`, `{1:2}`,
		`{"a":}`, ` { "a" : [ 1 , 2 ] } `, `[1]]`, `{}}`, `{"a":1`, `[1,2`, `{"a":{"b":[1,{"c":null}]}}`,
		"\t\r\n[1]\n", `[1]x`,
		// Nesting: encoding/json allows 10000 levels, not 10001.
		nest("[", "", "]", jsonx.MaxDepth), nest("[", "", "]", jsonx.MaxDepth+1),
		nest(`{"a":`, "1", "}", jsonx.MaxDepth), nest(`{"a":`, "1", "}", jsonx.MaxDepth+1),
		nest(`{"a":`, nest("[", "", "]", jsonx.MaxDepth-1), "}", 1),
		nest(`{"a":`, nest("[", "", "]", jsonx.MaxDepth), "}", 1),
	}
}

// TestDecodeRejectionParity pins the Scanner to encoding/json's grammar:
// Skip accepts exactly what json.Valid accepts, on the corpus and on random
// mutations of random documents, and Unquote yields the string
// encoding/json decodes.
func TestDecodeRejectionParity(t *testing.T) {
	check := func(in []byte) {
		t.Helper()
		if got, want := valid(in), json.Valid(in); got != want {
			t.Fatalf("scanner valid=%v, encoding/json valid=%v on %q", got, want, truncate(in))
		}
		s := jsonx.NewScanner(in)
		raw, escaped, err := s.ScanString()
		if err != nil || !s.AtEnd() {
			return
		}
		var want string
		if err := json.Unmarshal(in, &want); err != nil {
			t.Fatalf("encoding/json rejected string %q: %v", in, err)
		}
		if got := jsonx.Unquote(raw, escaped); got != want {
			t.Fatalf("Unquote(%q) = %q, encoding/json %q", in, got, want)
		}
	}
	for _, in := range scanCorpus() {
		check([]byte(in))
	}

	rng := rand.New(rand.NewSource(2))
	mutBytes := []byte(`{}[]",:\utrfalsn0189.-+eE ` + "\x00\x1f\x7f\xff")
	for i := 0; i < 20000; i++ {
		doc := randValue(rng, nil, 4)
		for m := rng.Intn(3); m > 0 && len(doc) > 0; m-- {
			switch p := rng.Intn(len(doc)); rng.Intn(4) {
			case 0:
				doc = doc[:p]
			case 1:
				doc[p] = mutBytes[rng.Intn(len(mutBytes))]
			case 2:
				doc = append(doc[:p], append([]byte{mutBytes[rng.Intn(len(mutBytes))]}, doc[p:]...)...)
			case 3:
				doc = append(doc[:p], doc[p+1:]...)
			}
		}
		check(doc)
	}
}

// randValue appends a random JSON value, written by the jsonx appenders.
func randValue(rng *rand.Rand, b []byte, depth int) []byte {
	k := rng.Intn(7)
	if depth == 0 {
		k %= 4
	}
	switch k {
	case 0:
		return jsonx.AppendString(b, randString(rng))
	case 1:
		return jsonx.AppendFloat(b, randFloat(rng))
	case 2:
		return append(b, []string{"true", "false", "null"}[rng.Intn(3)]...)
	case 3:
		return jsonx.AppendTime(b, randTime(rng))
	case 4, 5:
		b = append(b, '{')
		for i, n := 0, rng.Intn(4); i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonx.AppendString(b, randString(rng))
			b = append(b, ':')
			b = randValue(rng, b, depth-1)
		}
		return append(b, '}')
	default:
		b = append(b, '[')
		for i, n := 0, rng.Intn(4); i < n; i++ {
			if i > 0 {
				b = append(b, ',', ' ')
			}
			b = randValue(rng, b, depth-1)
		}
		return append(b, ']')
	}
}

func truncate(b []byte) []byte {
	if len(b) > 80 {
		return append(b[:80:80], "..."...)
	}
	return b
}

// TestWireAllocFences pins the allocation budget the riskd and event
// codecs build on: appending into spare capacity and scanning allocate
// nothing; Unquote allocates only the returned string.
func TestWireAllocFences(t *testing.T) {
	at := time.Date(2012, 11, 2, 9, 0, 0, 500000000, time.UTC)
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		buf = jsonx.AppendString(buf[:0], "device <1234> & \"co\"\n")
		buf = jsonx.AppendFloat(buf, 0.55)
		buf = jsonx.AppendFloat(buf, 1e-9)
		buf = jsonx.AppendTime(buf, at)
		buf = jsonx.AppendBool(buf, true)
	}); n != 0 {
		t.Errorf("appenders: %.1f allocs/op, fence is 0", n)
	}

	doc := []byte(`{"account":1234,"ip":"203.0.113.7","x":[1.5e3,true,null,{"y":"a\\nb"}]}`)
	if n := testing.AllocsPerRun(1000, func() {
		s := jsonx.NewScanner(doc)
		if s.Skip() != nil {
			panic("rejected")
		}
	}); n != 0 {
		t.Errorf("Skip: %.1f allocs/op, fence is 0", n)
	}

	raw := []byte("203.0.113.7")
	if n := testing.AllocsPerRun(1000, func() { _ = jsonx.Unquote(raw, false) }); n != 1 {
		t.Errorf("Unquote: %.1f allocs/op, fence is 1", n)
	}
}
