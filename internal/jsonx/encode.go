// Package jsonx owns the JSON text format for the repository's hand-rolled
// codecs: append-style encoders that write exactly the bytes encoding/json
// writes, and a validating Scanner that accepts exactly the JSON text
// encoding/json accepts. The riskd wire codec (internal/serve) and the
// event-log codec (internal/event) keep only their struct layouts and
// field rules on top of it. jsonx_test.go pins both halves against
// encoding/json at the repository's Go version.
//
// NaN and ±Inf have no JSON text. encoding/json refuses them with an
// UnsupportedValueError; AppendFloat instead writes strconv's NaN, +Inf or
// -Inf token, which no JSON reader (this Scanner included) accepts, so a
// non-finite value fails loudly where it is read rather than being misread.
// Callers that must reproduce encoding/json's refusal test IsFinite first.
package jsonx

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, byte for byte what
// encoding/json's default (HTML-escaping) encoder writes: short escapes for
// '"', '\\', \b, \f, \n, \r and \t; \u00XX for the other control bytes and
// for <, > and &; \ufffd for each byte of invalid UTF-8; and U+2028 and
// U+2029 as \u2028 and \u2029.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in %f form within [1e-6, 1e21) and in %e form
// outside it with a two-digit negative exponent trimmed (e-7, not e-07).
// f must be finite; see the package comment for NaN and ±Inf.
func AppendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// IsFinite reports whether f has a JSON encoding (it is neither NaN nor
// ±Inf).
func IsFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// AppendBool appends true or false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendTime appends t as a quoted RFC 3339 timestamp with nanoseconds, the
// bytes time.Time.MarshalJSON writes for every time it accepts (years 0
// through 9999, zone offsets under 24 hours).
func AppendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}
