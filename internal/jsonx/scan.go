package jsonx

import (
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit: a value inside more than
// MaxDepth objects and arrays is rejected ("exceeded max depth").
const MaxDepth = 10000

// errEOF reports input that ends inside a value. Input that ends after a
// complete value is not an error here: like json.Decoder.Decode, a caller
// may stop at the first value and ignore what follows.
var errEOF = errors.New("json: unexpected end of JSON input")

// Scanner reads JSON text from a byte slice. Its reading methods skip
// leading whitespace, then consume one token or value, validating it
// against the grammar encoding/json's scanner enforces. A method that
// fails returns an error and leaves the Scanner mid-value; the caller
// abandons the scan.
type Scanner struct {
	data  []byte
	off   int
	depth int // objects and arrays open around the cursor
}

// NewScanner returns a Scanner positioned at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Errorf returns an error naming the Scanner's current byte offset.
func (s *Scanner) Errorf(format string, args ...any) error {
	return fmt.Errorf("json: "+format+" (offset %d)", append(args, s.off)...)
}

func (s *Scanner) skipSpace() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\r', '\n':
			s.off++
		default:
			return
		}
	}
}

// Peek returns the next non-whitespace byte without consuming it.
func (s *Scanner) Peek() (byte, error) {
	s.skipSpace()
	if s.off >= len(s.data) {
		return 0, errEOF
	}
	return s.data[s.off], nil
}

// Expect consumes the byte c, which must come next after any whitespace.
func (s *Scanner) Expect(c byte) error {
	if s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return nil
	}
	return s.expectAfterSpace(c)
}

func (s *Scanner) expectAfterSpace(c byte) error {
	got, err := s.Peek()
	if err != nil {
		return err
	}
	if got != c {
		return s.Errorf("expected %q, found %q", c, got)
	}
	s.off++
	return nil
}

// ExpectKey consumes the object key name spelled without escapes, and the
// ':' after it; it is the fast path for a reader of one fixed layout. name
// must be printable ASCII without '"' or '\\'. A key spelled any other
// way, even one that unescapes to name, is an error.
func (s *Scanner) ExpectKey(name string) error {
	s.skipSpace()
	end := s.off + 1 + len(name)
	if end >= len(s.data) || s.data[s.off] != '"' || string(s.data[s.off+1:end]) != name || s.data[end] != '"' {
		return s.Errorf("expected key %q", name)
	}
	s.off = end + 1
	return s.Expect(':')
}

// AtEnd reports whether only whitespace remains.
func (s *Scanner) AtEnd() bool {
	s.skipSpace()
	return s.off >= len(s.data)
}

// ScanLiteral consumes true, false or null and returns its first byte.
func (s *Scanner) ScanLiteral() (byte, error) {
	c, err := s.Peek()
	if err != nil {
		return 0, err
	}
	var want string
	switch c {
	case 't':
		want = "true"
	case 'f':
		want = "false"
	case 'n':
		want = "null"
	default:
		return 0, s.Errorf("invalid character %q looking for a literal", c)
	}
	if len(s.data)-s.off < len(want) || string(s.data[s.off:s.off+len(want)]) != want {
		return 0, s.Errorf("invalid literal")
	}
	s.off += len(want)
	return c, nil
}

// ScanString consumes a string and returns the raw bytes between its
// quotes and whether they hold escapes; Unquote turns them into the
// string's value. Escape syntax is checked and raw control bytes are
// rejected, as encoding/json's scanner does. Invalid UTF-8 is not an error
// (encoding/json accepts it too); Unquote replaces it.
func (s *Scanner) ScanString() (raw []byte, escaped bool, err error) {
	s.skipSpace()
	if s.off >= len(s.data) || s.data[s.off] != '"' {
		return nil, false, s.expectAfterSpace('"')
	}
	data, start := s.data, s.off+1
	for i := start; i < len(data); i++ {
		c := data[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		s.off = i
		switch {
		case c == '"':
			s.off++
			return data[start:i], escaped, nil
		case c < 0x20:
			return nil, false, s.Errorf("invalid control character %#x in string", c)
		}
		escaped = true
		if i++; i >= len(data) {
			return nil, false, errEOF
		}
		switch data[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		case 'u':
			if len(data)-i <= 4 {
				return nil, false, errEOF
			}
			for _, h := range data[i+1 : i+5] {
				if hexVal(h) < 0 {
					return nil, false, s.Errorf("invalid \\u escape")
				}
			}
			i += 4
		default:
			return nil, false, s.Errorf("invalid escape character %q", data[i])
		}
	}
	s.off = len(data)
	return nil, false, errEOF
}

// hexVal returns the value of hex digit c, or -1.
func hexVal(c byte) rune {
	switch {
	case c >= '0' && c <= '9':
		return rune(c - '0')
	case c >= 'a' && c <= 'f':
		return rune(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// Unquote returns the value of a string ScanString read. Escape-free valid
// UTF-8 costs one allocation; otherwise escapes are resolved (surrogate
// pairs joined, a lone surrogate becoming U+FFFD) and each byte of invalid
// UTF-8 becomes U+FFFD, as encoding/json does.
func Unquote(raw []byte, escaped bool) string {
	if !escaped && utf8.Valid(raw) {
		return string(raw)
	}
	return string(appendUnquoted(make([]byte, 0, len(raw)+utf8.UTFMax), raw))
}

// appendUnquoted appends the value of raw, a string interior ScanString
// has validated.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch raw[i] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					lo := rune(utf8.RuneError)
					if i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
						lo = hex4(raw[i+3:])
					}
					if r = utf16.DecodeRune(r, lo); r != utf8.RuneError {
						i += 6
					}
				}
				dst = utf8.AppendRune(dst, r)
			default: // '"', '\\', '/'
				dst = append(dst, raw[i])
			}
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r) // RuneError replaces invalid bytes
			i += size
		}
	}
	return dst
}

func hex4(b []byte) rune {
	return hexVal(b[0])<<12 | hexVal(b[1])<<8 | hexVal(b[2])<<4 | hexVal(b[3])
}

// ScanNumber consumes a number and returns its text. The JSON grammar
// allows an optional minus, an integer part without leading zeros, an
// optional fraction and an optional exponent: no '+', no "05", no ".5".
func (s *Scanner) ScanNumber() ([]byte, error) {
	s.skipSpace()
	start := s.off
	if s.off < len(s.data) && s.data[s.off] == '-' {
		s.off++
	}
	switch {
	case s.off < len(s.data) && s.data[s.off] == '0':
		s.off++
	case s.off < len(s.data) && s.data[s.off] >= '1' && s.data[s.off] <= '9':
		s.digits()
	default:
		return nil, s.Errorf("invalid number")
	}
	if s.off < len(s.data) && s.data[s.off] == '.' {
		s.off++
		if !s.digits() {
			return nil, s.Errorf("invalid number: missing fraction digits")
		}
	}
	if s.off < len(s.data) && (s.data[s.off] == 'e' || s.data[s.off] == 'E') {
		s.off++
		if s.off < len(s.data) && (s.data[s.off] == '+' || s.data[s.off] == '-') {
			s.off++
		}
		if !s.digits() {
			return nil, s.Errorf("invalid number: missing exponent digits")
		}
	}
	return s.data[start:s.off], nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (s *Scanner) digits() bool {
	start := s.off
	for s.off < len(s.data) && s.data[s.off] >= '0' && s.data[s.off] <= '9' {
		s.off++
	}
	return s.off > start
}

// open consumes the opening byte c of an object or array, enforcing
// MaxDepth, and reports whether the container is empty, consuming its
// closing byte end too if so.
func (s *Scanner) open(c, end byte) (empty bool, err error) {
	if err := s.Expect(c); err != nil {
		return false, err
	}
	if s.depth++; s.depth > MaxDepth {
		return false, s.Errorf("exceeded max depth %d", MaxDepth)
	}
	if c, err := s.Peek(); err != nil || c != end {
		return false, err
	}
	s.off++
	s.depth--
	return true, nil
}

// next consumes the ',' between members or elements, or the closing byte
// end; done reports the latter.
func (s *Scanner) next(end byte) (done bool, err error) {
	c, err := s.Peek()
	if err != nil {
		return false, err
	}
	switch c {
	case ',':
		s.off++
		return false, nil
	case end:
		s.off++
		s.depth--
		return true, nil
	}
	return false, s.Errorf("expected ',' or %q, found %q", end, c)
}

// Object consumes an object, calling member for each key with the Scanner
// positioned on the member's value, which member must consume. The key is
// unescaped; it aliases the input unless it held escapes.
func (s *Scanner) Object(member func(key []byte) error) error {
	if empty, err := s.open('{', '}'); empty || err != nil {
		return err
	}
	for {
		key, escaped, err := s.ScanString()
		if err != nil {
			return err
		}
		if escaped {
			key = appendUnquoted(nil, key)
		}
		if err := s.Expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		if done, err := s.next('}'); done || err != nil {
			return err
		}
	}
}

// Array consumes an array, calling elem with the Scanner positioned on
// each element, which elem must consume.
func (s *Scanner) Array(elem func() error) error {
	if empty, err := s.open('[', ']'); empty || err != nil {
		return err
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if done, err := s.next(']'); done || err != nil {
			return err
		}
	}
}

// Skip consumes one value of any type, validating all of it.
func (s *Scanner) Skip() error {
	c, err := s.Peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		return s.Object(func([]byte) error { return s.Skip() })
	case '[':
		return s.Array(s.Skip)
	case '"':
		_, _, err = s.ScanString()
	case 't', 'f', 'n':
		_, err = s.ScanLiteral()
	default:
		_, err = s.ScanNumber()
	}
	return err
}

// Raw consumes one value and returns its text, the bytes a
// json.RawMessage would hold.
func (s *Scanner) Raw() ([]byte, error) {
	if _, err := s.Peek(); err != nil {
		return nil, err
	}
	start := s.off
	if err := s.Skip(); err != nil {
		return nil, err
	}
	return s.data[start:s.off], nil
}
