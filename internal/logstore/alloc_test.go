package logstore

import (
	"bytes"
	"runtime"
	"testing"

	"manualhijack/internal/event"
)

// TestDecoderAllocFence bounds what a read allocates beyond its records.
// ReadNDJSONWith at one shard may allocate what DecodeLineFast allocates
// for the dump's lines, plus a constant per batch and per read; a copy of
// each input line (one allocation a line) fails it. Opening and scanning
// a three-segment, 15-record directory, which reads every segment twice,
// must allocate under 1 MiB, so a segment read's buffers stay small.
func TestDecoderAllocFence(t *testing.T) {
	var dump bytes.Buffer
	if err := WriteNDJSON(&dump, mixedStore(6000)); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(dump.Bytes(), []byte("\n")), []byte("\n"))[1:]
	lineAllocs := testing.AllocsPerRun(3, func() {
		for _, l := range lines {
			if _, ok := event.DecodeLineFast(l); !ok {
				t.Fatalf("fast decoder refused %s", l)
			}
		}
	})
	readAllocs := testing.AllocsPerRun(3, func() {
		s, _, err := ReadNDJSONWith(bytes.NewReader(dump.Bytes()), ReadOptions{Shards: 1})
		if err != nil || s.Len() != len(lines) {
			t.Fatalf("read %v records, err %v; want %d", s, err, len(lines))
		}
	})
	batches := (len(lines) + batchLines - 1) / batchLines
	const perRead, perBatch = 128, 8
	budget := lineAllocs + float64(perRead+perBatch*batches)
	t.Logf("%d lines in %d batches: read %.0f allocs, lines %.0f, budget %.0f", len(lines), batches, readAllocs, lineAllocs, budget)
	if readAllocs > budget {
		t.Errorf("ReadNDJSONWith allocated %.0f times for %d lines; DecodeLineFast needs %.0f, so the budget is %.0f",
			readAllocs, len(lines), lineAllocs, budget)
	}

	dir := t.TempDir()
	sameTimeSegments(t, dir, 15, 5)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s, _, err := OpenSegmentDir(dir, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s.Scan(func(event.Event) {})
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("segment directory open+scan: %d bytes a run", perRun)
	if perRun >= 1<<20 {
		t.Errorf("opening and scanning a 15-record segment directory allocated %d bytes a run, want under 1 MiB", perRun)
	}
}
