package event

import (
	"bytes"
	"reflect"
	"regexp"
	"testing"
	"unsafe"
)

// surpriseLines are lines off the canonical path: every case
// TestFastDecodeFallsBackOnSurprises lists, plus whitespace between
// members, a non-UTC time, a time with ten fraction digits, integers out
// of the fast path's form, addresses that are not dotted quads, and
// escapes that unescape to a valid address or archetype.
var surpriseLines = []string{
	``, `{}`, `{"kind":"auth.login"}`,
	`{"kind":"no.such_kind","data":{"Time":"2012-01-01T00:00:00Z"}}`,
	`{"data":{"Time":"2012-01-01T00:00:00Z","Page":5},"kind":"phish.page_detected"}`,
	`{"kind":"phish.page_detected","data":{"Page":5,"Time":"2012-01-01T00:00:00Z"}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"X":1}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z"}}`,
	`{"kind":"phish.page_detected", "data" : { "Time" : "2012-01-01T00:00:00Z" , "Page" : 5 } }`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00+01:00","Page":5}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00.1234567891Z","Page":5}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-02-30T00:00:00Z","Page":5}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":5}}`,
	`{"kind":"phish.page_detected","data":{"Time":null,"Page":5}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":1234567890123456789}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":9223372036854775808}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":5.0}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":5e0}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":-0}}`,
	`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":05}}`,
	`{"kind":"recovery.remission","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"RestoredMessages":3000000000,"ClearedSettings":true}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"1.2.3.4"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"1.2.3.04"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"1.2.3.256"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"1.2.3"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"1..2.3"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"1.2.3.4.5"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"1.2.3.4\u0000"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"1.2.3.4"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"1\u002e2.3.4"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"::1"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"fe80::1%eth0"}}`,
	`{"kind":"phish.page_hit","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"Method":"GET","Referrer":"","Victim":"v","IP":"nonsense"}}`,
	`{"kind":"hijack.ended","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Crew":"c","LockedOut":true,"Archetype":""}}`,
	`{"kind":"hijack.ended","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Crew":"c","LockedOut":true,"Archetype":"a"}}`,
	`{"kind":"hijack.ended","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Crew":"c","LockedOut":true,"Archetype":"\u0061"}}`,
	`{"kind":"mail.sent","data":{"Time":"2012-01-01T00:00:00Z","ID":1,"From":"a","FromAcct":1,"Recipients":["a","bc","c","d","e","f","g","h","i","j"],"Class":"scam","Customized":false,"ReplyTo":"","PageID":0,"Session":0,"Actor":"owner"}}`,
	`{"kind":"mail.sent","data":{"Time":"2012-01-01T00:00:00Z","ID":1,"From":"a","FromAcct":1,"Recipients":["a",1],"Class":"scam","Customized":false,"ReplyTo":"","PageID":0,"Session":0,"Actor":"owner"}}`,
	`{"kind":"mail.search","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Query":"a` + "\xff" + `b","Session":2,"Actor":"owner"}}`,
	`{"kind":"mail.search","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Query":"a` + "\x01" + `b","Session":2,"Actor":"owner"}}`,
}

// checkModes holds the three readers of a line to one another:
// CheckLineFast accepts exactly the lines DecodeLineFast does, with the
// decoded record's kind and time, and a Decoder's record is DeepEqual to
// DecodeLineFast's.
func checkModes(t *testing.T, d *Decoder, line []byte) {
	t.Helper()
	e, ok := DecodeLineFast(line)
	kind, at, checked := CheckLineFast(line)
	if checked != ok {
		t.Fatalf("CheckLineFast ok=%v, DecodeLineFast ok=%v on %q", checked, ok, line)
	}
	shared, sharedOK := d.DecodeLine(line)
	if sharedOK != ok || !reflect.DeepEqual(shared, e) {
		t.Fatalf("Decoder.DecodeLine = %#v, %v; DecodeLineFast = %#v, %v on %q", shared, sharedOK, e, ok, line)
	}
	if ok && (kind != e.EventKind() || at != e.When()) {
		t.Fatalf("CheckLineFast = %s at %v, the record is %s at %v on %q", kind, at, e.EventKind(), e.When(), line)
	}
}

// zoned matches a time written with a zone offset.
var zoned = regexp.MustCompile(`[+-]\d\d:\d\d"`)

// TestCheckLineFastMatchesDecode holds check mode and the shared-string
// Decoder to DecodeLineFast on every sample line and every surprise.
// Check mode allocates nothing on the samples that need no fallback
// string: UTC times and addresses that are dotted quads or empty.
func TestCheckLineFastMatchesDecode(t *testing.T) {
	var d Decoder
	for _, e := range fastCodecSamples() {
		line, _ := AppendLine(nil, e)
		line = bytes.TrimSuffix(line, []byte("\n"))
		checkModes(t, &d, line)
		if zoned.Match(line) {
			continue
		}
		if hit, ok := e.(PageHit); ok && hit.IP.Is6() {
			continue
		}
		if login, ok := e.(Login); ok && login.IP.Is6() {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { CheckLineFast(line) }); n != 0 {
			t.Errorf("CheckLineFast(%T): %.1f allocs, fence is 0", e, n)
		}
	}
	for _, line := range surpriseLines {
		checkModes(t, &d, []byte(line))
	}
}

// TestDecoderSharesStrings checks that a Decoder hands out one string for
// a repeated value: the second decode of a line allocates only its record
// box and its address list, and its strings are the first decode's.
func TestDecoderSharesStrings(t *testing.T) {
	var d Decoder
	line := []byte(`{"kind":"mail.sent","data":{"Time":"2012-01-01T00:00:00Z","ID":1,"From":"alice@x.test","FromAcct":1,"Recipients":["bob@x.test","carol@x.test"],"Class":"scam","Customized":false,"ReplyTo":"dg@evil.test","PageID":0,"Session":3,"Actor":"hijacker"}}`)
	first, ok := d.DecodeLine(line)
	if !ok {
		t.Fatal("Decoder refused a canonical line")
	}
	if n := testing.AllocsPerRun(100, func() { d.DecodeLine(line) }); n != 2 {
		t.Errorf("repeat decode: %.1f allocs, want 2 (the record and its list)", n)
	}
	again, _ := d.DecodeLine(line)
	a, b := first.(MessageSent), again.(MessageSent)
	for _, pair := range [][2]string{
		{string(a.From), string(b.From)}, {string(a.Recipients[1]), string(b.Recipients[1])},
		{string(a.ReplyTo), string(b.ReplyTo)}, {string(a.Actor), string(b.Actor)},
	} {
		if unsafe.StringData(pair[0]) != unsafe.StringData(pair[1]) {
			t.Errorf("%q decoded twice into two strings", pair[0])
		}
	}
}

// FuzzCheckLineFast holds check mode to build mode on any line: the same
// lines accepted, with the same kind and time, and a Decoder's records
// DeepEqual to DecodeLineFast's. The Decoder carries its table from one
// input to the next, as it does from line to line.
func FuzzCheckLineFast(f *testing.F) {
	for _, e := range fastCodecSamples() {
		line, _ := AppendLine(nil, e)
		f.Add(bytes.TrimSuffix(line, []byte("\n")))
	}
	for _, line := range surpriseLines {
		f.Add([]byte(line))
	}
	var d Decoder
	f.Fuzz(func(t *testing.T, line []byte) { checkModes(t, &d, line) })
}
