package event

import (
	"bytes"
	"encoding/json"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"manualhijack/internal/identity"
)

// encodeJSONLine is AppendLine's encoding/json reference: json.Marshal
// of the record, wrapped in the envelope by a json.Encoder (which appends
// the newline and HTML-escapes).
func encodeJSONLine(t *testing.T, e Event) []byte {
	t.Helper()
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("marshal %T: %v", e, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	env := struct {
		Kind Kind            `json:"kind"`
		Data json.RawMessage `json:"data"`
	}{e.EventKind(), data}
	if err := enc.Encode(env); err != nil {
		t.Fatalf("encode envelope %T: %v", e, err)
	}
	return buf.Bytes()
}

// decodeJSONLine reproduces logstore's decodeLine via the registry.
func decodeJSONLine(t *testing.T, line []byte) Event {
	t.Helper()
	var env struct {
		Kind Kind            `json:"kind"`
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		t.Fatalf("unmarshal envelope: %v", err)
	}
	e, err := Decode(env.Kind, env.Data)
	if err != nil {
		t.Fatalf("decode %s: %v", env.Kind, err)
	}
	return e
}

// fastCodecSamples exercises every kind with adversarial field values:
// HTML-escaped characters, JSON escapes (\b and \f among them),
// U+2028/U+2029, invalid UTF-8, floats in both encoding/json formats,
// zero and nanosecond times, year 0 and a zone offset just under 24 hours
// (the edges time.Time.MarshalJSON still writes), zero and v4/v6
// addresses (one with a zone JSON must escape), nil/empty/multi recipient
// slices.
func fastCodecSamples() []Event {
	at := time.Date(2012, 11, 2, 9, 30, 15, 123456789, time.UTC)
	year0 := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)
	farWest := time.Date(2012, 1, 1, 0, 0, 0, 0, time.FixedZone("", -(24*3600-60)))
	coarse := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	micro := time.Date(2011, 7, 4, 23, 59, 59, 500000, time.UTC)
	nasty := "a<b>&\"c\\d\ne\tf g h\x01i\x7fjé\U0001F600\b\f"
	bad := "ok\xffbad"
	v4 := netip.MustParseAddr("203.0.113.7")
	v6 := netip.MustParseAddr("2001:db8::8a2e:370:7334")
	zoned := netip.MustParseAddr("fe80::1%en<0>&")
	return []Event{
		Login{Base{at}, 42, v4, "dev-1", true, LoginSuccess, false, 0.73, 9001, ActorOwner, ""},
		Login{Base{micro}, -1, v6, nasty, false, LoginBlocked, true, 1e-7, 0, ActorHijacker, "smashgrab"},
		Login{Base{coarse}, 0, netip.Addr{}, "", false, LoginWrongPassword, false, 0, -3, ActorSystem, ""},
		Login{Base{at}, 7, v4, bad, true, LoginChallengeFailed, true, math.MaxFloat64, 1, ActorOwner, ""},
		Login{Base{at}, 7, v4, "x", true, LoginSuccess, true, math.SmallestNonzeroFloat64, 1, ActorOwner, ""},
		Login{Base{at}, 9, v6, "kit-1", true, LoginSuccess, false, 0.4, 77, ActorHijacker, nasty},
		PasswordChanged{Base{at}, 42, 9001, ActorHijacker},
		RecoveryChanged{Base{micro}, 42, "phone", 9001, ActorOwner},
		RecoveryChanged{Base{at}, 1, nasty, 2, ActorSystem},
		TwoSVEnrolled{Base{at}, 42, "+1-555-0100", 9001, ActorOwner},
		MessageSent{Base{at}, 77, "a@x.test", 42, []identity.Address{"b@x.test", identity.Address(nasty + "@y")}, ClassScam, true, "dg@z.test", 5, 9001, ActorHijacker},
		MessageSent{Base{coarse}, 78, "", identity.None, nil, ClassOrganic, false, "", 0, 0, ActorOwner},
		MessageSent{Base{at}, 79, "c@x.test", 3, []identity.Address{}, ClassLure, false, "", 12, 4, ActorSystem},
		Search{Base{at}, 42, "bank <stmt> & \"wire\"", 9001, ActorHijacker},
		FolderOpened{Base{at}, 42, FolderSpam, 9001, ActorHijacker},
		ContactsViewed{Base{at}, 42, 9001, ActorHijacker},
		FilterCreated{Base{at}, 42, "fwd@evil.test", 9001, ActorHijacker},
		FilterCreated{Base{at}, 43, "", 9002, ActorOwner},
		ReplyToSet{Base{at}, 42, "doppel@evil.test", 9001, ActorHijacker},
		MassDeletion{Base{at}, 42, 317, 9001, ActorHijacker},
		SpamReported{Base{at}, 8, 77, "a@x.test", 42, ClassScam},
		PageCreated{Base{at}, 5, TargetMail, 0.8251, true, false},
		PageCreated{Base{micro}, 6, TargetBank, 1e21, false, true},
		PageHit{Base{at}, 5, "POST", "http://r.test/?a=1&b=<2>", "v@x.test", v6},
		PageHit{Base{at}, 5, "GET", "", "", netip.Addr{}},
		PageHit{Base{at}, 6, "GET", "", "", zoned},
		PageDetected{Base{at}, 5},
		PageTakedown{Base{at}, 5},
		LureSent{Base{at}, 31337, 5, "v@x.test", TargetAppStore, true, false},
		LureSent{Base{coarse}, -2, 0, identity.Address(nasty + "@v"), TargetOther, false, true},
		CredentialPhished{Base{at}, 42, 5, true},
		HijackStarted{Base{at}, 42, "crew-7", 9001, ""},
		HijackStarted{Base{at}, 42, "stuffer-1", 9002, "stuffer"},
		HijackAssessed{Base{at}, 42, "crew-7", 3*time.Minute + 17*time.Second, true, ""},
		HijackAssessed{Base{at}, 42, nasty, -time.Nanosecond, false, nasty},
		HijackEnded{Base{at}, 42, "crew-7", true, ""},
		HijackEnded{Base{at}, 42, "ransomer-1", false, "ransomer"},
		ScamReply{Base{at}, 42, 8, true, "replyto"},
		MoneyWired{Base{at}, 42, 8, "crew-7", 1273.50},
		MoneyWired{Base{at}, 42, 8, "", 0.000001},
		NotificationSent{Base{at}, 42, ChannelSMS, "new-device <login> & risk"},
		ClaimFiled{Base{at}, 42, "lockout", micro, ActorOwner},
		ClaimFiled{Base{at}, 42, "fraud", time.Time{}, ActorHijacker},
		ClaimFiled{Base{year0}, 42, "noticed", farWest, ActorOwner},
		ClaimAttempt{Base{at}, 42, MethodSMS, false, "gateway", ActorOwner},
		ClaimResolved{Base{at}, 42, true, MethodEmail, micro, coarse, ActorOwner},
		ClaimResolved{Base{at}, 42, false, "", time.Time{}, time.Time{}, ActorHijacker},
		Remission{Base{at}, 42, 204, true},
	}
}

// TestFastCodecMatchesEncodingJSON pins the fast path to the
// encoding/json path in both directions: encode byte-identical, decode
// DeepEqual, and round-trips through either decoder agree.
func TestFastCodecMatchesEncodingJSON(t *testing.T) {
	for _, e := range fastCodecSamples() {
		want := encodeJSONLine(t, e)
		got, ok := AppendLine(nil, e)
		if !ok {
			t.Fatalf("%T: AppendLine refused %+v", e, e)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T encode mismatch:\nfast: %s\njson: %s", e, got, want)
			continue
		}
		line := bytes.TrimSuffix(want, []byte("\n"))
		fast, ok := DecodeLineFast(line)
		if !ok {
			t.Fatalf("%T: DecodeLineFast refused canonical line %s", e, line)
		}
		slow := decodeJSONLine(t, line)
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("%T decode mismatch:\nfast: %#v\njson: %#v", e, fast, slow)
		}
	}
}

// TestWireAllocFences fences the codec's allocations over the samples.
// AppendLine allocates nothing, apart from ip.String() for the zoned IPv6
// PageHit. DecodeLineFast allocates only what the record keeps (the boxed
// record, its strings, slices and zones): 157 over the samples. The walk
// and the wire stay on the stack; dispatching walk through a generic
// dictionary or a closure makes both escape, which this fence catches.
func TestWireAllocFences(t *testing.T) {
	buf := make([]byte, 0, 4096)
	decodes := 0.0
	for _, e := range fastCodecSamples() {
		want := 0.0
		if hit, ok := e.(PageHit); ok && hit.IP.Zone() != "" {
			want = 1
		}
		if got := testing.AllocsPerRun(100, func() { AppendLine(buf[:0], e) }); got != want {
			t.Errorf("AppendLine(%T): %.1f allocs, fence is %.0f", e, got, want)
		}
		line := bytes.TrimSuffix(encodeJSONLine(t, e), []byte("\n"))
		decodes += testing.AllocsPerRun(100, func() { DecodeLineFast(line) })
	}
	if decodes > 157 {
		t.Errorf("DecodeLineFast: %.0f allocs over the samples, fence is 157", decodes)
	}
}

// TestFastCodecAppendsToPrefix pins the append contract: AppendLine
// extends dst in place and leaves it untouched on refusal.
func TestFastCodecAppendsToPrefix(t *testing.T) {
	prefix := []byte("prefix|")
	e := PageDetected{Base{time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)}, 5}
	out, ok := AppendLine(append([]byte(nil), prefix...), e)
	if !ok || !bytes.HasPrefix(out, prefix) {
		t.Fatalf("AppendLine lost prefix: ok=%v out=%s", ok, out)
	}
	// Values encoding/json refuses to marshal: a non-finite float, and the
	// times time.Time.MarshalJSON refuses (a zone offset of 24 hours or
	// more, a year outside [0, 9999]).
	for _, bad := range []Event{
		Login{Base: Base{time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)}, RiskScore: math.NaN()},
		PageDetected{Base{time.Date(2012, 1, 1, 0, 0, 0, 0, time.FixedZone("", 25*3600))}, 5},
		PageDetected{Base{time.Date(2012, 1, 1, 0, 0, 0, 0, time.FixedZone("", -24*3600))}, 5},
		PageDetected{Base{time.Date(2012, 1, 1, 0, 0, 0, 0, time.FixedZone("", 100*3600))}, 5},
		PageDetected{Base{time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)}, 5},
		ClaimFiled{Base: Base{time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)}, HijackedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		if _, err := json.Marshal(bad); err == nil {
			t.Errorf("encoding/json marshals %+v; it is no refusal case", bad)
		}
		out, ok = AppendLine(append([]byte(nil), prefix...), bad)
		if ok {
			t.Errorf("AppendLine accepted %+v: %s", bad, out)
		}
		if !bytes.Equal(out, prefix) {
			t.Errorf("refused AppendLine altered dst: %q", out)
		}
	}
}

// TestFastDecodeFallsBackOnSurprises pins the bail-out contract: any
// deviation from the canonical encoder's output must return ok=false so
// the encoding/json fallback owns the semantics.
func TestFastDecodeFallsBackOnSurprises(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"kind":"auth.login"}`,
		`{"kind":"no.such_kind","data":{"Time":"2012-01-01T00:00:00Z"}}`,
		// Reordered keys (valid JSON; json.Unmarshal would accept).
		`{"data":{"Time":"2012-01-01T00:00:00Z","Page":5},"kind":"phish.page_detected"}`,
		// Reordered fields inside data.
		`{"kind":"phish.page_detected","data":{"Page":5,"Time":"2012-01-01T00:00:00Z"}}`,
		// Unknown extra field (json.Unmarshal ignores; we must fall back).
		`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":5,"X":1}}`,
		// Missing field.
		`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z"}}`,
		// Escape in the kind string (decodes to a registered kind, but the
		// fast path must not unescape kinds).
		`{"kind":"phish.page\u005fdetected","data":{"Time":"2012-01-01T00:00:00Z","Page":5}}`,
		// An escaped key (valid JSON that names the same field): the
		// canonical encoder never escapes keys.
		`{"kind":"phish.page_detected","data":{"Tim` + "\\u0065" + `":"2012-01-01T00:00:00Z","Page":5}}`,
		// Trailing garbage.
		`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":5}} x`,
		// Malformed number / string / bool.
		`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":5.x}}`,
		`{"kind":"phish.page_detected","data":{"Time":"not-a-time","Page":5}}`,
		`{"kind":"phish.credential_phished","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Page":5,"Decoy":maybe}}`,
		// A trailing field after LockedOut that is not Archetype.
		`{"kind":"hijack.ended","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Crew":"c","LockedOut":true,"X":1}}`,
		// Present-but-empty Archetype: omitempty never writes this.
		`{"kind":"hijack.ended","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Crew":"c","LockedOut":true,"Archetype":""}}`,
		// Not JSON at all: a leading zero, a plus sign, a raw control byte
		// in a string. encoding/json rejects each, so the fallback must see
		// them and report the line.
		`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":05}}`,
		`{"kind":"phish.page_detected","data":{"Time":"2012-01-01T00:00:00Z","Page":+5}}`,
		`{"kind":"mail.search","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Query":"a` + "\x01" + `b","Session":2,"Actor":"owner"}}`,
	}
	for _, c := range cases {
		if e, ok := DecodeLineFast([]byte(c)); ok {
			t.Errorf("DecodeLineFast accepted %q → %#v", c, e)
		}
	}

	// A raw invalid UTF-8 byte is valid JSON: encoding/json replaces it
	// with U+FFFD, and the fast path must yield the same record.
	line := []byte(`{"kind":"mail.search","data":{"Time":"2012-01-01T00:00:00Z","Account":1,"Query":"a` + "\xff" + `b","Session":2,"Actor":"owner"}}`)
	slow := decodeJSONLine(t, line)
	if fast, ok := DecodeLineFast(line); ok && !reflect.DeepEqual(fast, slow) {
		t.Errorf("invalid UTF-8 decode mismatch:\nfast: %#v\njson: %#v", fast, slow)
	}
}

// TestFastCodecCoversAllKinds forces a codec update (not a silent
// fallback) whenever a kind is added to the registry.
func TestFastCodecCoversAllKinds(t *testing.T) {
	covered := map[Kind]bool{}
	for _, e := range fastCodecSamples() {
		covered[e.EventKind()] = true
	}
	for _, k := range RegisteredKinds() {
		if !covered[k] {
			t.Errorf("no fast-codec sample for kind %s — add one, a walk method and its codec_fast.go cases", k)
		}
	}
}

// FuzzDecodeLineFast holds the fast decoder to encoding/json: a line it
// accepts is one encoding/json accepts, decoding to the same record, and
// AppendLine writes that record back exactly as encoding/json does.
func FuzzDecodeLineFast(f *testing.F) {
	for _, e := range fastCodecSamples() {
		line, _ := AppendLine(nil, e)
		f.Add(bytes.TrimSuffix(line, []byte("\n")))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		fast, ok := DecodeLineFast(line)
		if !ok {
			return
		}
		var env struct {
			Kind Kind            `json:"kind"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("fast path accepted %q, which encoding/json rejects: %v", line, err)
		}
		slow, err := Decode(env.Kind, env.Data)
		if err != nil {
			t.Fatalf("fast path accepted %q, which encoding/json rejects: %v", line, err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("decode mismatch on %q:\nfast: %#v\njson: %#v", line, fast, slow)
		}
		out, ok := AppendLine(nil, fast)
		if !ok {
			t.Fatalf("AppendLine refused decoded record %#v", fast)
		}
		if want := encodeJSONLine(t, fast); !bytes.Equal(out, want) {
			t.Fatalf("re-encode mismatch:\nfast: %s\njson: %s", out, want)
		}
	})
}
