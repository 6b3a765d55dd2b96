package playbook

import (
	"strings"
	"testing"
	"testing/quick"

	"manualhijack/internal/identity"
	"manualhijack/internal/randx"
	"manualhijack/internal/strsim"
)

func TestMakeDoppelgangerLooksAlike(t *testing.T) {
	r := randx.New(1)
	victims := []identity.Address{
		"james.1518@pmail.test",
		"maria.7@pmail.test",
		"wei.3843@pmail.test",
	}
	for _, v := range victims {
		for i := 0; i < 50; i++ {
			d := makeDoppelganger(r, v)
			if d == v {
				t.Fatalf("doppelganger identical to victim: %s", d)
			}
			if sim := strsim.Similarity(string(v), string(d)); sim < 0.8 {
				t.Fatalf("doppelganger %s too dissimilar to %s (%.2f)", d, v, sim)
			}
			if !strings.Contains(string(d), "@") {
				t.Fatalf("doppelganger %s not an address", d)
			}
		}
	}
}

func TestMakeDoppelgangerKeepsTLD(t *testing.T) {
	r := randx.New(2)
	for i := 0; i < 100; i++ {
		d := makeDoppelganger(r, "user@pmail.test")
		if got := identity.TLD(identity.Address(d)); got != "test" {
			t.Fatalf("doppelganger %s changed the TLD to %q", d, got)
		}
	}
}

func TestMakeDoppelgangerMalformedVictim(t *testing.T) {
	r := randx.New(3)
	d := makeDoppelganger(r, "not-an-address")
	if !strings.Contains(string(d), "@") {
		t.Fatalf("fallback doppelganger %s not an address", d)
	}
}

// Property: doppelgangers are always within edit distance 2 of the victim
// (one typo in user or first domain label; duplication adds at most one).
func TestDoppelgangerEditDistanceProperty(t *testing.T) {
	r := randx.New(4)
	f := func(userSeed, domSeed uint16) bool {
		user := "user" + string(rune('a'+userSeed%26)) + string(rune('a'+userSeed/26%26))
		dom := "dom" + string(rune('a'+domSeed%26)) + ".test"
		v := identity.Address(user + "@" + dom)
		d := makeDoppelganger(r, v)
		return strsim.Levenshtein(string(v), string(d)) <= 2 && d != v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ChunkContacts never loses or duplicates a contact and keeps
// batches at high recipient counts whenever the list allows it.
func TestChunkContactsProperty(t *testing.T) {
	f := func(n uint8, batches uint8) bool {
		contacts := make([]identity.Address, int(n)%80)
		for i := range contacts {
			contacts[i] = identity.Address(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		}
		out := ChunkContacts(contacts, int(batches)%12)
		total := 0
		for _, b := range out {
			total += len(b)
			if len(contacts) >= 24 && len(b) < 12 {
				return false // a small batch despite a large list
			}
		}
		return total == len(contacts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
