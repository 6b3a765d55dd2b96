package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"manualhijack/internal/logstore"
	"manualhijack/internal/playbook"
)

// runPinnedWorld skips off linux/amd64, then builds and runs the world
// `hijacksim` builds for cfg, with its decoys active 16h a day.
func runPinnedWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on linux/amd64; elsewhere the compiler may fuse float multiply-adds, which moves the simulation")
	}
	w := NewWorld(cfg)
	w.InjectDecoys(time.Duration(cfg.Days) * 16 * time.Hour)
	w.Run()
	return w
}

// checkDumpDigest streams w's `hijacksim -events` dump into a sha256
// hasher and compares the sum with want.
func checkDumpDigest(t *testing.T, w *World, want string) {
	t.Helper()
	h := sha256.New()
	meta := logstore.Meta{Start: w.Cfg.Start, End: w.End(), Seed: w.Cfg.Seed}
	if err := logstore.WriteNDJSONMeta(h, w.Log, meta); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("dump: sha256 %s, want %s", got, want)
	}
}

// TestSeed7Digests pins the bytes the simulator writes. It builds the
// world of `hijacksim -seed 7 -pop 2000 -days 10 -decoys 40 -spill-dir D
// -segment-records 20000 -events F` and checks the sha256 of the dump F
// and of every file in D. A change that moves these bytes on purpose
// updates the digests and says why.
func TestSeed7Digests(t *testing.T) {
	segs := filepath.Join(t.TempDir(), "segs")
	cfg := DefaultConfig(7)
	cfg.PopulationN = 2000
	cfg.Days = 10
	cfg.DecoyN = 40
	cfg.Spill = logstore.SpillConfig{Dir: segs, SegmentRecords: 20000}
	w := runPinnedWorld(t, cfg)
	checkDumpDigest(t, w, "a312dbadf44002d9805dba893bafdf935d776e4b44090e66fc2e2e9ab1e974d5")

	want := map[string]string{
		"manifest.json":     "db0729f9a3b94ff7b9aa15f31bc51d17ed48d2cce7572cf8211233e929ca146b",
		"seg-000001.ndjson": "5817c93a891c7cdbed4901e482330f9cc7c5c5f5fa90e811cbff5bd385d035b1",
		"seg-000002.ndjson": "e5ee9dd15a23a723833a413e73e86b900a0faa965a659448088b9f882ceb0160",
		"seg-000003.ndjson": "9065f591eed95fd29d72cd5e25080a4e5f4b60fa5d54a9a14cebcf3d0b03dbac",
		"seg-000004.ndjson": "a4b853bab7777945f183b50f6b36a6406b34624b0877f42ec2b22f1e01a40f23",
	}
	files, err := filepath.Glob(filepath.Join(segs, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("spill dir holds %d files, want %d: %v", len(files), len(want), files)
	}
	for name, sum := range want {
		data, err := os.ReadFile(filepath.Join(segs, name))
		if err != nil {
			t.Error(err)
			continue
		}
		got := sha256.Sum256(data)
		if hex.EncodeToString(got[:]) != sum {
			t.Errorf("%s: sha256 %x, want %s", name, got, sum)
		}
	}
}

// TestSeed13ArchetypeDigest pins the dump of a world that fields one or
// two of each of the ten non-manual playbooks next to the manual crews:
// `hijacksim -seed 13 -pop 4000 -days 30 -decoys 40 -archetypes
// smashgrab:2,stuffer:2,hopper:1,datathief:1,lowslow:1,impaas:1,
// spamcannon:1,sleeper:1,ransomer:1,lateralphisher:1 -events F`.
func TestSeed13ArchetypeDigest(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.PopulationN = 4000
	cfg.Days = 30
	cfg.DecoyN = 40
	roster, err := playbook.ParseRoster("smashgrab:2,stuffer:2,hopper:1,datathief:1,lowslow:1,impaas:1,spamcannon:1,sleeper:1,ransomer:1,lateralphisher:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range roster {
		cfg.Archetypes = append(cfg.Archetypes, ArchetypeSpec{Archetype: entry.Archetype, Count: entry.Count})
	}
	w := runPinnedWorld(t, cfg)
	checkDumpDigest(t, w, "e0a5942cfd02e626278a3c8bbbd3b443a9c8c724bc09c7d22c8c200908dbb58a")
}
