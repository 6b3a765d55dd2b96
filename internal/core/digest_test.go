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
)

// TestSeed7Digests pins the bytes the simulator writes. It builds the
// world of `hijacksim -seed 7 -pop 2000 -days 10 -decoys 40 -spill-dir D
// -segment-records 20000 -events F` and checks the sha256 of the dump F
// and of every file in D. A change that moves these bytes on purpose
// updates the digests and says why.
func TestSeed7Digests(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on linux/amd64; elsewhere the compiler may fuse float multiply-adds, which moves the simulation")
	}
	dir := t.TempDir()
	segs := filepath.Join(dir, "segs")
	cfg := DefaultConfig(7)
	cfg.PopulationN = 2000
	cfg.Days = 10
	cfg.DecoyN = 40
	cfg.Spill = logstore.SpillConfig{Dir: segs, SegmentRecords: 20000}
	w := NewWorld(cfg)
	w.InjectDecoys(time.Duration(cfg.Days) * 16 * time.Hour)
	w.Run()
	dump := filepath.Join(dir, "w.ndjson")
	meta := logstore.Meta{Start: w.Cfg.Start, End: w.End(), Seed: cfg.Seed}
	if err := logstore.WriteNDJSONFile(dump, w.Log, meta); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		dump:                                     "a312dbadf44002d9805dba893bafdf935d776e4b44090e66fc2e2e9ab1e974d5",
		filepath.Join(segs, "manifest.json"):     "db0729f9a3b94ff7b9aa15f31bc51d17ed48d2cce7572cf8211233e929ca146b",
		filepath.Join(segs, "seg-000001.ndjson"): "5817c93a891c7cdbed4901e482330f9cc7c5c5f5fa90e811cbff5bd385d035b1",
		filepath.Join(segs, "seg-000002.ndjson"): "e5ee9dd15a23a723833a413e73e86b900a0faa965a659448088b9f882ceb0160",
		filepath.Join(segs, "seg-000003.ndjson"): "9065f591eed95fd29d72cd5e25080a4e5f4b60fa5d54a9a14cebcf3d0b03dbac",
		filepath.Join(segs, "seg-000004.ndjson"): "a4b853bab7777945f183b50f6b36a6406b34624b0877f42ec2b22f1e01a40f23",
	}
	files, err := filepath.Glob(filepath.Join(segs, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want)-1 {
		t.Errorf("spill dir holds %d files, want %d: %v", len(files), len(want)-1, files)
	}
	for path, sum := range want {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
			continue
		}
		got := sha256.Sum256(data)
		if hex.EncodeToString(got[:]) != sum {
			t.Errorf("%s: sha256 %x, want %s", filepath.Base(path), got, sum)
		}
	}
}
