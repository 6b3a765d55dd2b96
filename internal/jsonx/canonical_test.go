package jsonx_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"manualhijack/internal/jsonx"
)

// timeCorpus holds quoted UTC stamps in and out of TimeUTC's form: every
// field at and past its range, leap days, fraction lengths 0 to 10, other
// zones, escapes, whitespace and cut text.
var timeCorpus = []string{
	`"2012-11-02T09:30:15.123456789Z"`, `"2012-11-02T09:30:15Z"`, `"2012-11-02T09:30:15.5Z"`,
	`"0000-01-01T00:00:00Z"`, `"9999-12-31T23:59:59.999999999Z"`, `"1970-01-01T00:00:00Z"`,
	`"2012-02-29T00:00:00Z"`, `"2000-02-29T00:00:00Z"`, `"1900-02-29T00:00:00Z"`, `"2013-02-29T00:00:00Z"`,
	`"0000-02-29T00:00:00Z"`, `"2012-04-31T00:00:00Z"`, `"2012-04-30T00:00:00Z"`, `"2012-12-32T00:00:00Z"`,
	`"2012-00-10T00:00:00Z"`, `"2012-13-10T00:00:00Z"`, `"2012-01-00T00:00:00Z"`, `"2012-01-01T24:00:00Z"`,
	`"2012-01-01T23:60:00Z"`, `"2012-01-01T23:59:60Z"`, `"2012-01-01T00:00:00.Z"`,
	`"2012-01-01T00:00:00.1234567890Z"`, `"2012-01-01T00:00:00.000000000Z"`, `"2012-01-01T00:00:00.0Z"`,
	`"2012-01-01T00:00:00+00:00"`, `"2012-01-01T00:00:00-07:00"`, `"2012-01-01T00:00:00z"`,
	`"2012-01-01t00:00:00Z"`, `"2012-01-01 00:00:00Z"`, `"2012-01-01T00:00:00,5Z"`,
	`"2012-01-01T00:00:00Z`, `"2012-01-01T00:00:00Z" `, ` "2012-01-01T00:00:00Z"`, `2012-01-01T00:00:00Z`,
	`"2012-01-01T00:00:00Z"`, `"+012-01-01T00:00:00Z"`, `"-012-01-01T00:00:00Z"`, `"2012-1-01T00:00:00Z"`,
	`"12012-01-01T00:00:00Z"`, `"2012-01-01T0:00:00Z"`, `""`, `"`, `null`, ``,
}

// checkTimeUTC holds TimeUTC to time.Time.UnmarshalJSON on one input: it
// declines, consuming nothing, or consumes one string, to its closing
// quote, whose value UnmarshalJSON gives too, equal under == and
// reflect.DeepEqual.
func checkTimeUTC(t *testing.T, in []byte) {
	t.Helper()
	s := jsonx.NewScanner(in)
	got, ok := s.TimeUTC()
	if !ok {
		if !reflect.DeepEqual(s, jsonx.NewScanner(in)) {
			t.Fatalf("TimeUTC(%q) declined but moved the scanner", in)
		}
		return
	}
	end := bytes.IndexByte(in[1:], '"') + 2
	var want time.Time
	if err := want.UnmarshalJSON(in[:end]); err != nil {
		t.Fatalf("TimeUTC(%q) = %v, but UnmarshalJSON rejects it: %v", in, got, err)
	}
	if got != want || !reflect.DeepEqual(got, want) {
		t.Fatalf("TimeUTC(%q) = %#v, UnmarshalJSON gives %#v", in, got, want)
	}
	ref := jsonx.NewScanner(in)
	if _, _, err := ref.ScanString(); err != nil || !reflect.DeepEqual(s, ref) {
		t.Fatalf("TimeUTC(%q) did not stop at the closing quote", in)
	}
}

// TestTimeUTCMatchesUnmarshalJSON holds the timestamp fast path to
// time.Time.UnmarshalJSON over the corpus and over random UTC times as
// AppendTime writes them, which it must all accept.
func TestTimeUTCMatchesUnmarshalJSON(t *testing.T) {
	for _, in := range timeCorpus {
		checkTimeUTC(t, []byte(in))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		at := time.Unix(rng.Int63n(253402300800)-62167219200, rng.Int63n(1e9)).UTC()
		switch rng.Intn(3) {
		case 0:
			at = at.Truncate(time.Second)
		case 1:
			at = at.Truncate(time.Millisecond)
		}
		in := jsonx.AppendTime(nil, at)
		s := jsonx.NewScanner(in)
		if _, ok := s.TimeUTC(); !ok {
			t.Fatalf("TimeUTC declined AppendTime's %s", in)
		}
		checkTimeUTC(t, in)
	}
}

// FuzzTimeUTC holds the timestamp fast path to time.Time.UnmarshalJSON on
// any input.
func FuzzTimeUTC(f *testing.F) {
	for _, in := range timeCorpus {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkTimeUTC(t, in) })
}

// TestIntMatchesScanNumber holds the integer fast path to ScanNumber and
// strconv.ParseInt: Int declines, consuming nothing, or reads the same
// token to the same value.
func TestIntMatchesScanNumber(t *testing.T) {
	cases := []string{
		"0", "-0", "7", "-7", "42,", "123456789012345678", "-123456789012345678",
		"1234567890123456789", "9223372036854775807", "-9223372036854775808",
		"05", "-05", "00", "1.5", "1e3", "1E3", "-", "", "+1", " 1", "a", "12a", "0.0",
	}
	for _, in := range cases {
		s := jsonx.NewScanner([]byte(in))
		n, ok := s.Int()
		if !ok {
			if rest := jsonx.NewScanner([]byte(in)); !reflect.DeepEqual(s, rest) {
				t.Errorf("Int(%q) declined but moved the scanner", in)
			}
			continue
		}
		ref := jsonx.NewScanner([]byte(in))
		tok, err := ref.ScanNumber()
		if err != nil {
			t.Errorf("Int(%q) = %d, but ScanNumber rejects it: %v", in, n, err)
			continue
		}
		want, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil || n != want || !reflect.DeepEqual(s, ref) {
			t.Errorf("Int(%q) = %d, ScanNumber and ParseInt give %d (%v), or a different end", in, n, want, err)
		}
	}
}

// TestExpectMemberMatchesExpectKey holds ExpectMember to Expect then
// ExpectKey, with and without whitespace, and its canonical path to no
// allocation, as with the other fast readers.
func TestExpectMemberMatchesExpectKey(t *testing.T) {
	for _, in := range []string{
		`,"Time":1`, `{"Time":1`, ` , "Time" : 1`, `,"Tim":1`, `,"Times":1`, `,"Time"1`, `;"Time":1`,
		`,"Time`, `,"Time"`, `,`, ``, `,"Time":1`,
	} {
		got, want := jsonx.NewScanner([]byte(in)), jsonx.NewScanner([]byte(in))
		gotErr := got.ExpectMember(',', "Time")
		wantErr := want.Expect(',')
		if wantErr == nil {
			wantErr = want.ExpectKey("Time")
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("ExpectMember(%q) = %v; Expect+ExpectKey = %v", in, gotErr, wantErr)
		}
	}
	line := []byte(`{"Time":"2012-11-02T09:30:15.123456789Z","Account":1234}`)
	if n := testing.AllocsPerRun(1000, func() {
		s := jsonx.NewScanner(line)
		_ = s.ExpectMember('{', "Time")
		_, _ = s.TimeUTC()
		_ = s.ExpectMember(',', "Account")
		_, _ = s.Int()
	}); n != 0 {
		t.Errorf("canonical member reads: %.1f allocs/op, fence is 0", n)
	}
}
