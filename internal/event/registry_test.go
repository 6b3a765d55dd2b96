package event

import (
	"encoding/json"
	"testing"
)

// Every registered kind must decode to a record of that kind: a decoder
// registered under the wrong kind would read that kind's dump lines back
// as records of another kind.
func TestRegistryBidirectional(t *testing.T) {
	samples := map[Kind]Event{}
	for _, e := range fastCodecSamples() {
		samples[e.EventKind()] = e
	}
	for _, k := range RegisteredKinds() {
		e, ok := samples[k]
		if !ok {
			t.Errorf("kind %q has no fastCodecSamples record", k)
			continue
		}
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal %T: %v", e, err)
		}
		got, err := Decode(k, data)
		if err != nil {
			t.Fatalf("decode %s: %v", k, err)
		}
		if got.EventKind() != k {
			t.Errorf("Decode(%q) returned a %T of kind %q", k, got, got.EventKind())
		}
	}
}
