package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"manualhijack/internal/challenge"
	"manualhijack/internal/identity"
	"manualhijack/internal/risk"
	"manualhijack/internal/serve"
)

// nastyRunes feeds the string generator every escaping regime the encoder
// has to match: quotes, backslashes, control characters, the HTML trio,
// U+2028/U+2029, multi-byte runes, and (via raw bytes below) invalid UTF-8.
var nastyRunes = []rune{'a', 'b', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t',
	'\b', '\f', 0x01, 0x1f, '<', '>', '&', 'é', 'Ω', '語', '\u2028', '\u2029', '😀'}

func randString(rng *rand.Rand) string {
	n := rng.Intn(12)
	var b []byte
	for i := 0; i < n; i++ {
		if rng.Intn(16) == 0 {
			b = append(b, 0xff, 0xfe) // invalid UTF-8
			continue
		}
		b = append(b, string(nastyRunes[rng.Intn(len(nastyRunes))])...)
	}
	return string(b)
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(100)) // integral values
	default:
		// Spread across magnitudes so both the %f and %e regimes (and the
		// exponent-trim path) are exercised.
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(36)-10))
	}
}

func randTime(rng *rand.Rand) time.Time {
	return time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).UTC()
}

func randScoreRequest(rng *rand.Rand) serve.ScoreRequest {
	r := serve.ScoreRequest{
		Account:    identity.AccountID(rng.Int31()),
		IP:         randString(rng),
		At:         randTime(rng),
		PasswordOK: rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		r.DeviceID = randString(rng)
	}
	if rng.Intn(3) == 0 {
		p := &serve.PrincipalWire{}
		// nil-or-nonempty phones: an empty non-nil slice is omitted by
		// omitempty and would decode back as nil, so the round-trip
		// generator never produces it (json.Marshal has the same blind spot).
		if n := rng.Intn(3); n > 0 {
			for i := 0; i < n; i++ {
				p.Phones = append(p.Phones, randString(rng))
			}
		}
		if rng.Intn(2) == 0 {
			p.KnowledgeSkill = randFloat(rng)
		}
		r.Principal = p
	}
	return r
}

func randScoreResponse(rng *rand.Rand) serve.ScoreResponse {
	r := serve.ScoreResponse{
		Score: randFloat(rng),
		Signals: risk.Signals{
			NewCountry:     rng.Intn(2) == 0,
			ImpossibleHop:  rng.Intn(2) == 0,
			NewDevice:      rng.Intn(2) == 0,
			IPFanout:       randFloat(rng),
			RecentFailures: randFloat(rng),
		},
		Verdict: serve.Verdict(randString(rng)),
	}
	if rng.Intn(2) == 0 {
		r.ChallengeMethod = challenge.Method(randString(rng))
	}
	if rng.Intn(2) == 0 {
		passed := rng.Intn(2) == 0
		r.ChallengePassed = &passed
	}
	return r
}

func randStatzResponse(rng *rand.Rand) serve.StatzResponse {
	r := serve.StatzResponse{
		UptimeS:       randFloat(rng),
		Score:         rng.Int63(),
		Outcome:       rng.Int63(),
		Rejected:      rng.Int63(),
		BadRequests:   rng.Int63(),
		ChallengesRun: rng.Int63(),
		Latency: serve.LatencyWire{
			N: rng.Int(), P50us: randFloat(rng), P95us: randFloat(rng),
			P99us: randFloat(rng), MaxUs: randFloat(rng),
		},
	}
	if rng.Intn(8) != 0 {
		r.Verdicts = map[serve.Verdict]int64{}
		for _, v := range []serve.Verdict{serve.VerdictAdmit, serve.VerdictChallenge, serve.VerdictBlock} {
			if rng.Intn(3) > 0 {
				r.Verdicts[v] = rng.Int63()
			}
		}
	}
	return r
}

// TestEncodeEquivalence is the byte-level property: for randomized wire
// structs, every Append* encoder produces exactly json.Marshal's bytes.
func TestEncodeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 5000; i++ {
		checkEncode := func(name string, fast []byte, v any) {
			t.Helper()
			std, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: json.Marshal: %v", name, err)
			}
			if !bytes.Equal(fast, std) {
				t.Fatalf("%s encode mismatch (iter %d):\nfast %q\nstd  %q\nvalue %+v", name, i, fast, std, v)
			}
		}
		sreq := randScoreRequest(rng)
		checkEncode("ScoreRequest", serve.AppendScoreRequest(nil, &sreq), &sreq)
		oreq := serve.OutcomeRequest{Account: sreq.Account, IP: sreq.IP, DeviceID: sreq.DeviceID,
			At: sreq.At, Success: rng.Intn(2) == 0}
		checkEncode("OutcomeRequest", serve.AppendOutcomeRequest(nil, &oreq), &oreq)
		sresp := randScoreResponse(rng)
		checkEncode("ScoreResponse", serve.AppendScoreResponse(nil, &sresp), &sresp)
		statz := randStatzResponse(rng)
		checkEncode("StatzResponse", serve.AppendStatzResponse(nil, &statz), &statz)
	}
}

// TestDecodeRoundTrip is the decode property: a fast-encoded request
// decodes — through both the fast decoder and encoding/json — back to the
// original struct, and both decoders agree field for field.
func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 5000; i++ {
		orig := randScoreRequest(rng)
		wire := serve.AppendScoreRequest(nil, &orig)

		var fast, std serve.ScoreRequest
		if err := serve.DecodeScoreRequest(wire, &fast); err != nil {
			t.Fatalf("fast decode of own encoding failed (iter %d): %v\n%q", i, err, wire)
		}
		if err := json.Unmarshal(wire, &std); err != nil {
			t.Fatalf("encoding/json rejected fast encoding (iter %d): %v\n%q", i, err, wire)
		}
		// Strings with invalid UTF-8 are replaced with U+FFFD by both
		// decoders, so compare the decoded structs to each other (exact)
		// and to the original modulo that replacement.
		if !reflect.DeepEqual(fast, std) {
			t.Fatalf("decoders disagree (iter %d):\nfast %+v\nstd  %+v\nwire %q", i, fast, std, wire)
		}

		var ofast, ostd serve.OutcomeRequest
		owire := serve.AppendOutcomeRequest(nil, &serve.OutcomeRequest{
			Account: orig.Account, IP: orig.IP, DeviceID: orig.DeviceID, At: orig.At, Success: i%2 == 0})
		if err := serve.DecodeOutcomeRequest(owire, &ofast); err != nil {
			t.Fatalf("fast outcome decode failed (iter %d): %v", i, err)
		}
		if err := json.Unmarshal(owire, &ostd); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ofast, ostd) {
			t.Fatalf("outcome decoders disagree (iter %d):\nfast %+v\nstd  %+v", i, ofast, ostd)
		}
	}
}

// decodeParity runs one input through a fast decoder and json.Decoder and
// fails the test on any accept/reject or decoded-value disagreement.
func decodeParity[T any](t *testing.T, input []byte, decode func([]byte, *T) error) {
	t.Helper()
	var fast, std T
	fastErr := decode(input, &fast)
	stdErr := json.NewDecoder(bytes.NewReader(input)).Decode(&std)
	if (fastErr == nil) != (stdErr == nil) {
		t.Fatalf("%T: rejection parity broken on %q:\nfast err: %v\nstd err:  %v", fast, truncate(input), fastErr, stdErr)
	}
	if fastErr == nil && !reflect.DeepEqual(fast, std) {
		t.Fatalf("%T: decoded values diverge on %q:\nfast %+v\nstd  %+v", fast, truncate(input), fast, std)
	}
}

// decodeParities checks every request decoder on input.
func decodeParities(t *testing.T, input []byte) {
	t.Helper()
	decodeParity(t, input, serve.DecodeScoreRequest)
	decodeParity(t, input, serve.DecodeOutcomeRequest)
	decodeParity(t, input, serve.DecodeBatchItem)
}

func truncate(b []byte) []byte {
	if len(b) > 120 {
		return append(b[:120:120], "..."...)
	}
	return b
}

// nested returns an object whose unknown field holds n nested arrays.
func nested(n int) string {
	return `{"account":1,"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// parityCorpus is the malformed- and edge-input corpus the request
// decoders must judge exactly as json.Decoder does.
func parityCorpus() []string {
	return []string{
		// The old handler's bad-request cases.
		`{nope`,
		`{"account":1,"ip":"not-an-ip","at":"2012-11-02T09:00:00Z"}`,
		``,
		`null`,
		`  null  trailing-garbage`,
		`{}`,
		`{} {"account":2}`,
		`{"account":1}`,
		`5`, `"str"`, `[1,2]`, `true`,
		// Numbers.
		`{"account":01}`, `{"account":1.}`, `{"account":.5}`, `{"account":+1}`,
		`{"account":1e}`, `{"account":1e+}`, `{"account":-}`, `{"account":1.5}`,
		`{"account":1e2}`, `{"account":99999999999}`, `{"account":-0}`,
		`{"account":null}`, `{"account":"7"}`, `{"account":true}`,
		// Strings and escapes.
		`{"ip":"a\u00e9b"}`, `{"ip":"\ud83d\ude00"}`, `{"ip":"\ud800"}`, `{"ip":"\ud800\u0041"}`,
		`{"ip":"bad\escape"}`, `{"ip":"unterminated`, `{"ip":"ctrl` + "\x01" + `"}`,
		`{"ip":"\u12"}`, `{"ip":"\u12zz"}`, `{"ip": 5}`, `{"ip": null}`,
		// Keys: case folding, escapes, duplicates, unknowns.
		`{"ACCOUNT": 3, "Ip": "x", "DEVICE_id": "d"}`,
		`{"\u0061ccount": 9}`,
		`{"account":1,"account":2}`,
		`{"unknown":{"deep":[1,{"x":null}]},"account":4}`,
		`{"unknown":{"deep":[1,{"x":nulL}]}}`,
		`{"unknown":{bad}}`,
		`{"unknown":"trailing ws"   }   `,
		// Time field.
		`{"at":"2012-11-02T09:00:00Z"}`, `{"at":"2012-11-02T09:00:00.123456789+07:00"}`,
		`{"at":"not a time"}`, `{"at":123}`, `{"at":null}`, `{"at":{"x":1}}`,
		// Bools.
		`{"password_ok":true}`, `{"password_ok":false}`, `{"password_ok":null}`,
		`{"password_ok":1}`, `{"password_ok":"true"}`, `{"password_ok":tru}`,
		// Principal nesting.
		`{"principal":null}`, `{"principal":{}}`,
		`{"principal":{"phones":[]}}`, `{"principal":{"phones":null}}`,
		`{"principal":{"phones":["a",null,"b"]}}`,
		`{"principal":{"phones":["a",]}}`, `{"principal":{"phones":"a"}}`,
		`{"principal":{"knowledge_skill":0.5,"extra":[]}}`,
		`{"principal":{"knowledge_skill":"high"}}`,
		`{"principal":[1]}`,
		// Structural.
		`{"account":1,}`, `{"account" 1}`, `{"account":1 "ip":"x"}`, `{,}`,
		"\t\r\n {\"account\":  8 } \n",
		// Nesting: json.Decoder allows 10000 levels (the object plus 9999
		// arrays), not 10001.
		nested(9999), nested(10000),
		// Keys matching through the non-ASCII runes Unicode case folding
		// sends to ASCII letters (KELVIN SIGN to k, LONG S to s), raw and
		// escaped.
		"{\"password_o\U0000212a\":true,\"\U0000017fuccess\":true}",
		"{\"pa\\u017fsword_ok\":true,\"principal\":{\"\\u212Anowledge_\\u017Fkill\":0.5}}",
		"{\"password_\U0000212a\":true}",
		// Duplicate arrays decode in place: a null element keeps the old one.
		`{"principal":{"phones":["a","b","c"],"phones":["x",null]}}`,
		`{"principal":{"phones":["a","b"],"phones":[null,null,null]}}`,
		`{"principal":{"knowledge_skill":1},"principal":{"phones":["a"]}}`,
	}
}

// TestDecodeRejectionParity feeds the fast decoders the malformed-input
// corpus plus random mutations of valid documents and asserts they accept
// and reject exactly what json.Decoder.Decode accepts and rejects.
func TestDecodeRejectionParity(t *testing.T) {
	for _, in := range parityCorpus() {
		decodeParities(t, []byte(in))
	}

	// Mutation fuzz: valid documents with random truncations, byte flips,
	// insertions, and deletions must be judged identically by both sides.
	rng := rand.New(rand.NewSource(71))
	mutBytes := []byte(`{}[]",:\u123etrufalsnl0189.-+eE` + "\x00\x1f\xff ")
	for i := 0; i < 4000; i++ {
		req := randScoreRequest(rng)
		doc := serve.AppendScoreRequest(nil, &req)
		for m := rng.Intn(3) + 1; m > 0; m-- {
			if len(doc) == 0 {
				break
			}
			switch p := rng.Intn(len(doc)); rng.Intn(4) {
			case 0: // truncate
				doc = doc[:p]
			case 1: // flip
				doc[p] = mutBytes[rng.Intn(len(mutBytes))]
			case 2: // insert
				doc = append(doc[:p], append([]byte{mutBytes[rng.Intn(len(mutBytes))]}, doc[p:]...)...)
			case 3: // delete
				doc = append(doc[:p], doc[p+1:]...)
			}
		}
		decodeParities(t, doc)
	}
}

// FuzzDecodeScoreRequest holds DecodeScoreRequest to json.Decoder: the
// same accept/reject verdict and, on success, the same struct.
func FuzzDecodeScoreRequest(f *testing.F) {
	addParitySeeds(f)
	f.Fuzz(func(t *testing.T, in []byte) { decodeParity(t, in, serve.DecodeScoreRequest) })
}

// FuzzDecodeOutcomeRequest is FuzzDecodeScoreRequest for the /v1/outcome
// decoder.
func FuzzDecodeOutcomeRequest(f *testing.F) {
	addParitySeeds(f)
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 16; i++ {
		req := randScoreRequest(rng)
		f.Add(serve.AppendOutcomeRequest(nil, &serve.OutcomeRequest{
			Account: req.Account, IP: req.IP, DeviceID: req.DeviceID, At: req.At, Success: i%2 == 0}))
	}
	f.Fuzz(func(t *testing.T, in []byte) { decodeParity(t, in, serve.DecodeOutcomeRequest) })
}

// FuzzDecodeBatchItem is FuzzDecodeScoreRequest for the /v1/score.batch
// line decoder.
func FuzzDecodeBatchItem(f *testing.F) {
	addParitySeeds(f)
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 16; i++ {
		req := randScoreRequest(rng)
		item := serve.ScoreItem(req)
		if i%2 == 1 {
			item = serve.OutcomeItem(serve.OutcomeRequest{Account: req.Account, IP: req.IP, At: req.At, Success: true})
		}
		f.Add(serve.AppendBatchItem(nil, &item))
	}
	f.Fuzz(func(t *testing.T, in []byte) { decodeParity(t, in, serve.DecodeBatchItem) })
}

func addParitySeeds(f *testing.F) {
	for _, in := range parityCorpus() {
		f.Add([]byte(in))
	}
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 16; i++ {
		req := randScoreRequest(rng)
		f.Add(serve.AppendScoreRequest(nil, &req))
	}
}

// TestDecodeOmitemptyEdges pins the omitempty corners the replay and
// challenge paths depend on: nil principal, absent challenge_passed,
// empty signals, empty device.
func TestDecodeOmitemptyEdges(t *testing.T) {
	// A minimal request omits device_id and principal entirely.
	min := serve.ScoreRequest{Account: 5, IP: "1.2.3.4", At: time.Unix(1351846800, 0).UTC()}
	wire := serve.AppendScoreRequest(nil, &min)
	if bytes.Contains(wire, []byte("device_id")) || bytes.Contains(wire, []byte("principal")) {
		t.Fatalf("omitempty fields leaked into %q", wire)
	}
	var back serve.ScoreRequest
	if err := serve.DecodeScoreRequest(wire, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(min, back) {
		t.Fatalf("minimal round trip: got %+v want %+v", back, min)
	}

	// An all-zero response keeps score/signals/verdict (no omitempty) but
	// drops challenge_method and challenge_passed.
	zero := serve.ScoreResponse{}
	enc := serve.AppendScoreResponse(nil, &zero)
	std, _ := json.Marshal(&zero)
	if !bytes.Equal(enc, std) {
		t.Fatalf("zero response: fast %q std %q", enc, std)
	}
	if bytes.Contains(enc, []byte("challenge_method")) || bytes.Contains(enc, []byte("challenge_passed")) {
		t.Fatalf("zero response leaked omitempty fields: %q", enc)
	}
	for _, want := range []string{`"score":0`, `"NewCountry":false`, `"verdict":""`} {
		if !bytes.Contains(enc, []byte(want)) {
			t.Fatalf("zero response missing %s: %q", want, enc)
		}
	}

	// challenge_passed=false must still be emitted when the pointer is set.
	passed := false
	withP := serve.ScoreResponse{Verdict: serve.VerdictChallenge, ChallengePassed: &passed}
	if enc := serve.AppendScoreResponse(nil, &withP); !bytes.Contains(enc, []byte(`"challenge_passed":false`)) {
		t.Fatalf("explicit false challenge_passed dropped: %q", enc)
	}
}

// TestWireAllocFences pins the codec's allocation budget: the acceptance
// bar is ≤ 4 allocs for a full decode+encode of the replay-shaped score
// exchange (no principal). The decode's three allocations are the two
// retained strings (IP, DeviceID — they outlive the pooled body buffer)
// plus one inside time.Parse; the encode allocates nothing.
func TestWireAllocFences(t *testing.T) {
	body := []byte(`{"account":1234,"ip":"203.0.113.7","device_id":"device-1234","at":"2012-11-02T09:00:00.5Z","password_ok":true}`)
	var req serve.ScoreRequest
	decAllocs := testing.AllocsPerRun(2000, func() {
		req = serve.ScoreRequest{}
		if err := serve.DecodeScoreRequest(body, &req); err != nil {
			panic(err)
		}
	})
	if decAllocs > 3 {
		t.Errorf("DecodeScoreRequest: %.1f allocs/op, fence is 3", decAllocs)
	}

	passed := true
	resp := serve.ScoreResponse{
		Score:           0.55,
		Signals:         risk.Signals{NewCountry: true, IPFanout: 0.3},
		Verdict:         serve.VerdictChallenge,
		ChallengeMethod: challenge.MethodSMS,
		ChallengePassed: &passed,
	}
	buf := make([]byte, 0, 512)
	encAllocs := testing.AllocsPerRun(2000, func() {
		buf = serve.AppendScoreResponse(buf[:0], &resp)
	})
	if encAllocs != 0 {
		t.Errorf("AppendScoreResponse: %.1f allocs/op, fence is 0", encAllocs)
	}
	if total := decAllocs + encAllocs; total > 4 {
		t.Errorf("score decode+encode: %.1f allocs/op, acceptance fence is 4", total)
	}

	statz := serve.StatzResponse{
		UptimeS: 12.5, Score: 100, Outcome: 90,
		Verdicts: map[serve.Verdict]int64{serve.VerdictAdmit: 80, serve.VerdictChallenge: 15, serve.VerdictBlock: 5},
		Latency:  serve.LatencyWire{N: 100, P50us: 17, P95us: 80, P99us: 170, MaxUs: 900},
	}
	statzAllocs := testing.AllocsPerRun(2000, func() {
		buf = serve.AppendStatzResponse(buf[:0], &statz)
	})
	if statzAllocs != 0 {
		t.Errorf("AppendStatzResponse: %.1f allocs/op, fence is 0", statzAllocs)
	}

	var out serve.OutcomeRequest
	obody := []byte(`{"account":1234,"ip":"203.0.113.7","device_id":"device-1234","at":"2012-11-02T09:00:00Z","success":true}`)
	oAllocs := testing.AllocsPerRun(2000, func() {
		out = serve.OutcomeRequest{}
		if err := serve.DecodeOutcomeRequest(obody, &out); err != nil {
			panic(err)
		}
	})
	if oAllocs > 3 {
		t.Errorf("DecodeOutcomeRequest: %.1f allocs/op, fence is 3", oAllocs)
	}
}

func BenchmarkScoreWire(b *testing.B) {
	body := []byte(`{"account":1234,"ip":"203.0.113.7","device_id":"device-1234","at":"2012-11-02T09:00:00.5Z","password_ok":true}`)
	passed := true
	resp := serve.ScoreResponse{
		Score:           0.55,
		Signals:         risk.Signals{NewCountry: true, IPFanout: 0.3},
		Verdict:         serve.VerdictChallenge,
		ChallengeMethod: challenge.MethodSMS,
		ChallengePassed: &passed,
	}
	b.Run("decode/std", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req serve.ScoreRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req serve.ScoreRequest
			if err := serve.DecodeScoreRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/std", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/fast", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 512)
		for i := 0; i < b.N; i++ {
			buf = serve.AppendScoreResponse(buf[:0], &resp)
		}
	})
}

var _ = fmt.Sprintf // keep fmt for debugging edits
