package logstore

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"manualhijack/internal/event"
)

// loadResult is what one load of an input came to: its records and
// stats, or its error text.
type loadResult struct {
	Events []event.Event
	Stats  *ReadStats
	Err    string
}

func resultOf(s *Store, st *ReadStats, err error) loadResult {
	if err != nil {
		return loadResult{Err: err.Error()}
	}
	var events []event.Event
	s.Scan(func(e event.Event) { events = append(events, e) })
	return loadResult{Events: events, Stats: st}
}

// FuzzReadNDJSON holds the one NDJSON reader to one answer per input,
// plain and gzip-wrapped. Strict and SkipCorrupt loads at one and four
// shards must agree on records and stats, or fail with the same error;
// a strict resegment must read back the strict load's records, or fail
// with its error.
func FuzzReadNDJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var zipped bytes.Buffer
		zw := gzip.NewWriter(&zipped)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, zipped.Bytes()} {
			load := func(opts ReadOptions) loadResult {
				return resultOf(ReadNDJSONWith(bytes.NewReader(in), opts))
			}
			var loads [2]loadResult // strict, then SkipCorrupt
			for i, skip := range []bool{false, true} {
				one := load(ReadOptions{SkipCorrupt: skip, Shards: 1})
				four := load(ReadOptions{SkipCorrupt: skip, Shards: 4})
				if !reflect.DeepEqual(one, four) {
					t.Fatalf("SkipCorrupt=%v: 1 shard and 4 shards disagree:\n%+v\n%+v", skip, one, four)
				}
				loads[i] = one
			}

			path := filepath.Join(t.TempDir(), "dump")
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			// About four segments whatever the input's size: several for
			// a small input, and not hundreds of files for a big one.
			cfg := SpillConfig{Dir: t.TempDir(), SegmentRecords: 1 + len(loads[1].Events)/4, Writers: 2}
			reseg := resultOf(ResegmentNDJSONFile(path, cfg, ReadOptions{Shards: 4}))
			if reseg.Stats != nil {
				reseg.Stats.Segments = 0 // a monolithic load reports none
			}
			if !reflect.DeepEqual(loads[0], reseg) {
				t.Fatalf("strict load and resegment disagree:\n%+v\n%+v", loads[0], reseg)
			}
		}
	})
}
