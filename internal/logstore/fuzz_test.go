package logstore

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
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

// FuzzOpenSegmentDir opens a fixed three-segment directory of 15 records
// under fuzzed manifest.json bytes, strict and with SkipCorrupt. Nothing
// may panic; a strict open that succeeds serves each of the directory's
// records at most once and holds exactly the records its manifest
// declares; a SkipCorrupt open of a manifest the strict open rejected
// says why in ManifestIgnored; and a SkipCorrupt open counts no record
// below zero and none twice: the records it keeps and drops add up to at
// most the directory's 15, plus what entries naming absent files declare.
func FuzzOpenSegmentDir(f *testing.F) {
	const records = 15
	dir := f.TempDir()
	sameTimeSegments(f, dir, records, 5)
	good, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, err := OpenSegmentDir(dir, ReadOptions{})
		if err == nil {
			var m manifest
			if jerr := json.Unmarshal(data, &m); jerr != nil {
				t.Fatalf("strict open accepted a manifest that does not parse: %v", jerr)
			}
			if s.Len() != m.Records {
				t.Fatalf("strict open holds %d records; its manifest declares %d", s.Len(), m.Records)
			}
			seen := map[identity.AccountID]bool{}
			s.Scan(func(e event.Event) {
				acct := e.(event.Login).Account
				if seen[acct] {
					t.Fatalf("strict open served account %d's record twice", acct)
				}
				seen[acct] = true
			})
			if s.Len() > records {
				t.Fatalf("strict open holds %d records; the directory's segments hold %d", s.Len(), records)
			}
		}
		rejected := err != nil && strings.HasPrefix(err.Error(), "logstore: "+dir+"/"+ManifestName+": ")
		_, st, skipErr := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
		if rejected && (skipErr != nil || st.ManifestIgnored == "") {
			t.Fatalf("strict open rejected the manifest (%v), but SkipCorrupt did not report it ignored (err %v)", err, skipErr)
		}
		if skipErr != nil {
			return
		}
		// A segment whose file is absent did not decode, so its drop
		// counts what its entry declares.
		bound := records
		var m manifest
		if st.ManifestIgnored == "" && json.Unmarshal(data, &m) == nil {
			for _, seg := range m.Segments {
				if _, err := os.Stat(filepath.Join(dir, seg.File)); err != nil {
					bound += max(0, seg.Records)
				}
			}
		}
		if st.Dropped < 0 || st.Records+st.Dropped > bound {
			t.Fatalf("SkipCorrupt open kept %d records and dropped %d; the directory holds %d, absent files declare %d",
				st.Records, st.Dropped, records, bound-records)
		}
	})
}
