package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
)

func smallWorld(seed int64, mutate func(*core.Config)) *core.World {
	cfg := core.DefaultConfig(seed)
	cfg.PopulationN = 1500
	cfg.Days = 14
	cfg.CampaignsPerDay = 6
	if mutate != nil {
		mutate(&cfg)
	}
	w := core.NewWorld(cfg)
	w.Run()
	return w
}

func TestWorldDeterminism(t *testing.T) {
	a := smallWorld(42, nil)
	b := smallWorld(42, nil)
	if a.Log.Len() != b.Log.Len() {
		t.Fatalf("same seed, different log sizes: %d vs %d", a.Log.Len(), b.Log.Len())
	}
	ka, kb := a.Log.KindCounts(), b.Log.KindCounts()
	for k, n := range ka {
		if kb[k] != n {
			t.Fatalf("kind %s: %d vs %d", k, n, kb[k])
		}
	}
}

func TestWorldSeedSensitivity(t *testing.T) {
	a := smallWorld(1, nil)
	b := smallWorld(2, nil)
	if a.Log.Len() == b.Log.Len() {
		t.Fatal("different seeds produced identical log sizes (suspicious)")
	}
}

func TestAuthLogRetention(t *testing.T) {
	// With a 3-day retention window, no login record can be older than
	// ~4 days relative to the end of the run (the daily sweep plus one
	// day of slack).
	w := smallWorld(7, func(c *core.Config) { c.AuthLogRetentionDays = 3 })
	end := w.End()
	logins := logstore.Select[event.Login](w.Log)
	if len(logins) == 0 {
		t.Fatal("no logins survived retention")
	}
	for _, l := range logins {
		if age := end.Sub(l.When()); age > 4*24*time.Hour {
			t.Fatalf("login aged %v survived a 3-day retention window", age)
		}
	}
	// Non-login kinds keep their full history.
	full := smallWorld(7, nil)
	if lures := len(logstore.Select[event.LureSent](w.Log)); lures == 0 ||
		lures != len(logstore.Select[event.LureSent](full.Log)) {
		t.Fatal("retention policy touched non-login records")
	}
}

func TestDoubleRunPanics(t *testing.T) {
	cfg := core.DefaultConfig(1)
	cfg.PopulationN = 500
	cfg.Days = 1
	cfg.CampaignsPerDay = 0
	w := core.NewWorld(cfg)
	w.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	w.Run()
}

func TestDecoyAccountsHaveNoContacts(t *testing.T) {
	cfg := core.DefaultConfig(1)
	cfg.PopulationN = 500
	cfg.Days = 1
	cfg.DecoyN = 20
	w := core.NewWorld(cfg)
	ids := w.DecoyIDs()
	if len(ids) != 20 {
		t.Fatalf("decoys = %d", len(ids))
	}
	for _, id := range ids {
		if len(w.Dir.Get(id).Contacts) != 0 {
			t.Fatal("decoy account has contacts")
		}
	}
}

func TestBehavioralDefenseSuspends(t *testing.T) {
	on := smallWorld(21, func(c *core.Config) { c.BehavioralDefense = true })
	if on.Guard == nil {
		t.Fatal("guardian not wired")
	}
	if on.Guard.Suspended == 0 {
		t.Fatal("online behavioral defense never suspended an account")
	}
	// Suspended accounts must end up with a "suspended"-triggered claim or
	// at minimum blocked hijacker logins afterwards.
	blockedAfter := 0
	for _, l := range logstore.Select[event.Login](on.Log) {
		if l.Outcome == event.LoginBlocked {
			blockedAfter++
		}
	}
	if blockedAfter == 0 {
		t.Fatal("no blocked logins after suspensions")
	}
	// The guardian's suspensions and the log they shape (107,316 records)
	// are pinned on linux/amd64, as in TestSeed7Digests.
	if runtime.GOOS == "linux" && runtime.GOARCH == "amd64" {
		if on.Guard.Suspended != 39 {
			t.Errorf("guardian suspended %d accounts, want 39", on.Guard.Suspended)
		}
		h := sha256.New()
		if err := logstore.WriteNDJSON(h, on.Log); err != nil {
			t.Fatal(err)
		}
		const want = "9f8fe6b28a1d471d8d2a5892303789f3ea2fa1e2efedade17495d3c1503b9bb8"
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("log: sha256 %s, want %s (%d records)", got, want, on.Log.Len())
		}
	}
	// With the defense off, nothing is suspended.
	off := smallWorld(21, nil)
	if off.Guard != nil {
		t.Fatal("guardian present while disabled")
	}
}

// TestDiscardedLogReservesNothing: the log is pre-sized when Run starts,
// not when the world is built, so a world whose log is discarded first,
// as each era world of a study without a spill directory is, never
// allocates the slice. A 100-user, 300-day config estimates about a
// million records, a 16 MB slice; building that world and discarding its
// log must allocate under 4 MB.
func TestDiscardedLogReservesNothing(t *testing.T) {
	cfg := core.DefaultConfig(3)
	cfg.PopulationN = 100
	cfg.Days = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := core.NewWorld(cfg)
	w.Log.Discard()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("building a world and discarding its log allocated %d bytes, want under 4 MiB", got)
	}
}
