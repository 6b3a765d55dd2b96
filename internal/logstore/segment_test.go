package logstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

// spilledMixedStore is mixedStore built in spill mode.
func spilledMixedStore(t *testing.T, n int, cfg SpillConfig) *Store {
	t.Helper()
	s := New()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if err := s.EnableSpill(cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		s.Append(login(at, identity.AccountID(i%13+1), event.ActorOwner))
		if i%3 == 0 {
			s.Append(event.Search{Base: event.Base{Time: at}, Account: 1, Query: "bank"})
		}
		if i%7 == 0 {
			s.Append(event.MoneyWired{Base: event.Base{Time: at}, VictimAccount: 1, Amount: 10})
		}
	}
	return s
}

// assertStoresEqual checks every read path of got against want record for
// record. Both stores must be sealed.
func assertStoresEqual(t *testing.T, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	var gotEvents, wantEvents []event.Event
	got.Scan(func(e event.Event) { gotEvents = append(gotEvents, e) })
	want.Scan(func(e event.Event) { wantEvents = append(wantEvents, e) })
	if !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Fatalf("Scan diverges: %d vs %d records", len(gotEvents), len(wantEvents))
	}
	if g, w := Select[event.Login](got), Select[event.Login](want); !reflect.DeepEqual(g, w) {
		t.Fatalf("Select[Login] diverges: %d vs %d", len(g), len(w))
	}
	if g, w := Select[event.MoneyWired](got), Select[event.MoneyWired](want); !reflect.DeepEqual(g, w) {
		t.Fatalf("Select[MoneyWired] diverges: %d vs %d", len(g), len(w))
	}
	pred := func(l event.Login) bool { return l.Account == 3 }
	if g, w := SelectWhere(got, pred), SelectWhere(want, pred); !reflect.DeepEqual(g, w) {
		t.Fatalf("SelectWhere diverges: %d vs %d", len(g), len(w))
	}
	if g, w := got.KindCounts(), want.KindCounts(); !reflect.DeepEqual(g, w) {
		t.Fatalf("KindCounts diverges: %v vs %v", g, w)
	}
	if g, w := got.SortedKinds(), want.SortedKinds(); !reflect.DeepEqual(g, w) {
		t.Fatalf("SortedKinds diverges: %v vs %v", g, w)
	}
}

// Every read path of a spilled store must answer exactly like the in-RAM
// store that saw the same appends — the store-level half of the segmented
// parity guarantee.
func TestSpilledReadsMatchMonolithic(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "gzip"
		}
		t.Run(name, func(t *testing.T) {
			mono := mixedStore(900)
			mono.Seal()
			// Small segments make every read path in the comparison
			// decode many of them, each scan afresh.
			spilled := spilledMixedStore(t, 900, SpillConfig{
				SegmentRecords: 97,
				Compress:       compress,
			})
			spilled.Seal()
			if !spilled.Segmented() {
				t.Fatal("spilled store not segmented after Seal")
			}
			if spilled.SegmentCount() < 3 {
				t.Fatalf("only %d segments; the test needs several", spilled.SegmentCount())
			}
			assertStoresEqual(t, spilled, mono)
		})
	}
}

// Appending exactly k*threshold records must produce exactly k segments,
// each holding exactly threshold records — the record on the seal
// threshold lands in the segment it filled, never duplicated into or lost
// from the next.
func TestSegmentBoundaryExact(t *testing.T) {
	const threshold = 50
	dir := t.TempDir()
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: dir, SegmentRecords: threshold}); err != nil {
		t.Fatal(err)
	}
	const n = 3 * threshold
	for i := 0; i < n; i++ {
		s.Append(login(t0.Add(time.Duration(i)*time.Second), identity.AccountID(i+1), event.ActorOwner))
	}
	s.Seal()
	if s.SegmentCount() != 3 {
		t.Fatalf("%d records at threshold %d made %d segments, want 3", n, threshold, s.SegmentCount())
	}
	for i, seg := range s.spill.segs {
		if seg.Records != threshold {
			t.Fatalf("segment %d holds %d records, want %d", i, seg.Records, threshold)
		}
	}
	// Nothing lost, nothing duplicated: every account ID 1..n seen once,
	// in order.
	next := identity.AccountID(1)
	s.Scan(func(e event.Event) {
		if e.(event.Login).Account != next {
			t.Fatalf("scan saw account %d, want %d", e.(event.Login).Account, next)
		}
		next++
	})
	if int(next-1) != n {
		t.Fatalf("scan visited %d records, want %d", next-1, n)
	}

	// One past the threshold spills a fourth, single-record segment.
	s2 := New()
	if err := s2.EnableSpill(SpillConfig{Dir: t.TempDir(), SegmentRecords: threshold}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+1; i++ {
		s2.Append(login(t0.Add(time.Duration(i)*time.Second), identity.AccountID(i+1), event.ActorOwner))
	}
	s2.Seal()
	if s2.SegmentCount() != 4 {
		t.Fatalf("threshold+1 made %d segments, want 4", s2.SegmentCount())
	}
	if last := s2.spill.segs[3]; last.Records != 1 {
		t.Fatalf("final segment holds %d records, want 1", last.Records)
	}
}

// A spilling store must never hold more than one segment's worth of
// records in RAM, even when the caller reserves a whole-world estimate —
// the Reserve/expectedEvents interplay that would otherwise defeat the
// memory bound.
func TestSpillBoundsActiveCapacity(t *testing.T) {
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: t.TempDir(), SegmentRecords: 100}); err != nil {
		t.Fatal(err)
	}
	s.Reserve(1_000_000)
	if c := cap(s.events); c > 100 {
		t.Fatalf("Reserve grew the active segment to cap %d, want <= 100", c)
	}
	for i := 0; i < 950; i++ {
		s.Append(login(t0.Add(time.Duration(i)*time.Second), 1, event.ActorOwner))
		if c := cap(s.events); c > 128 {
			t.Fatalf("active segment cap grew to %d after %d appends, want <= 128", c, i+1)
		}
	}
	s.Seal()
	if s.Len() != 950 {
		t.Fatalf("Len = %d, want 950", s.Len())
	}
}

// Reopening a spill directory must serve exactly what was spilled, with
// the manifest metadata intact — and ReadNDJSONFile must route directory
// paths there transparently.
func TestOpenSegmentDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Start: t0, End: t0.Add(time.Hour), Seed: 99}
	orig := spilledMixedStore(t, 700, SpillConfig{Dir: dir, SegmentRecords: 128, Compress: true, Meta: meta})
	orig.Seal()

	got, st, err := ReadNDJSONFile(dir, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Segmented() || !got.Sealed() {
		t.Fatal("reopened store should be sealed and segmented")
	}
	if st.Records != orig.Len() {
		t.Fatalf("stats report %d records, want %d", st.Records, orig.Len())
	}
	if st.Segments != orig.SegmentCount() {
		t.Fatalf("stats report %d segments, want %d", st.Segments, orig.SegmentCount())
	}
	if st.Meta != meta {
		t.Fatalf("Meta = %+v, want %+v", st.Meta, meta)
	}
	assertStoresEqual(t, got, orig)
}

// A directory with no manifest is a spill that never reached Seal, so a
// strict open fails naming manifest.json. SkipCorrupt still opens it via
// the file glob, says why in ManifestIgnored, and re-verifies per-segment
// headers in place of manifest expectations.
func TestOpenSegmentDirWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	orig := spilledMixedStore(t, 400, SpillConfig{Dir: dir, SegmentRecords: 90})
	orig.Seal()
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSegmentDir(dir, ReadOptions{}); err == nil || !strings.Contains(err.Error(), ManifestName) {
		t.Fatalf("strict open of a manifest-less directory: err = %v, want one naming %s", err, ManifestName)
	}
	got, st, err := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != orig.Len() {
		t.Fatalf("stats report %d records, want %d", st.Records, orig.Len())
	}
	if !st.Meta.Start.IsZero() {
		t.Fatal("manifest-less open should carry zero Meta")
	}
	if !strings.Contains(st.ManifestIgnored, "not found") {
		t.Fatalf("ManifestIgnored = %q, want it to say the manifest was not found", st.ManifestIgnored)
	}
	assertStoresEqual(t, got, orig)
}

// corruptSegment mangles one line of a segment file in place.
func corruptSegment(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("segment %s too short to corrupt", path)
	}
	lines[2] = "{\"kind\":\"nonsense\"garbage\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A corrupt segment fails a strict open with the segment named; with
// SkipCorrupt the whole segment is dropped, counted in SegmentsDropped and
// Dropped — never silently — and the rest of the log still serves.
func TestOpenSegmentDirCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	orig := spilledMixedStore(t, 500, SpillConfig{Dir: dir, SegmentRecords: 100})
	orig.Seal()
	total := orig.Len()
	nsegs := orig.SegmentCount()
	badRecords := orig.spill.segs[1].Records
	corruptSegment(t, filepath.Join(dir, orig.spill.segs[1].File))

	if _, _, err := OpenSegmentDir(dir, ReadOptions{}); err == nil {
		t.Fatal("strict open of a corrupt segment succeeded")
	} else if !strings.Contains(err.Error(), "seg-000002") {
		t.Fatalf("error does not name the bad segment: %v", err)
	}

	got, st, err := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsDropped != 1 {
		t.Fatalf("SegmentsDropped = %d, want 1", st.SegmentsDropped)
	}
	if st.Dropped != badRecords {
		t.Fatalf("Dropped = %d, want the bad segment's %d records", st.Dropped, badRecords)
	}
	if st.Segments != nsegs-1 {
		t.Fatalf("Segments = %d, want %d", st.Segments, nsegs-1)
	}
	if st.Records != total-badRecords {
		t.Fatalf("Records = %d, want %d", st.Records, total-badRecords)
	}
	n := 0
	got.Scan(func(event.Event) { n++ })
	if n != total-badRecords {
		t.Fatalf("scan visited %d records, want %d", n, total-badRecords)
	}
}

// Cross-segment monotonicity: a segment starting before its predecessor
// ended is disorder the per-segment checks cannot see. Strict mode fails;
// SkipCorrupt drops the offender and reports it.
func TestOpenSegmentDirCrossSegmentOrder(t *testing.T) {
	dir := t.TempDir()
	// Two spill dirs with overlapping time ranges, assembled so segment 2
	// starts before segment 1 ended.
	late := spilledMixedStore(t, 200, SpillConfig{Dir: t.TempDir(), SegmentRecords: 1 << 20})
	late.Seal()
	early := spilledMixedStore(t, 50, SpillConfig{Dir: t.TempDir(), SegmentRecords: 1 << 20})
	early.Seal()
	copyFile := func(src, dst string) {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile(filepath.Join(late.spill.cfg.Dir, "seg-000001.ndjson"), filepath.Join(dir, "seg-000001.ndjson"))
	copyFile(filepath.Join(early.spill.cfg.Dir, "seg-000001.ndjson"), filepath.Join(dir, "seg-000002.ndjson"))
	// A manifest whose entries match the files, so a strict open gets past
	// every per-segment check to the order check.
	second := early.spill.segs[0]
	second.File = "seg-000002.ndjson"
	data, err := json.MarshalIndent(manifest{
		Format:   SegmentFormatName,
		Version:  SegmentFormatVersion,
		Records:  late.Len() + early.Len(),
		Segments: []segmentInfo{late.spill.segs[0], second},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := OpenSegmentDir(dir, ReadOptions{}); err == nil {
		t.Fatal("strict open of disordered segments succeeded")
	} else if !strings.Contains(err.Error(), "before predecessor") {
		t.Fatalf("unexpected error: %v", err)
	}

	got, st, err := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsDropped != 1 || st.Segments != 1 {
		t.Fatalf("SegmentsDropped = %d, Segments = %d, want 1 and 1", st.SegmentsDropped, st.Segments)
	}
	if got.Len() != late.Len() {
		t.Fatalf("kept %d records, want the first segment's %d", got.Len(), late.Len())
	}
}

// rewriteManifest applies edit to dir's manifest in place.
func rewriteManifest(t *testing.T, dir string, edit func(*manifest)) {
	t.Helper()
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	if data, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The manifest is not trusted: an entry that names a file outside the
// directory, or entries that hold fewer records than the manifest
// declares, fail a strict open that names manifest.json and the problem.
// SkipCorrupt treats such a manifest as malformed and lists the directory.
// An entry that passes those checks still binds its segment file: one
// that declares no records fails a strict open that names the file, and
// SkipCorrupt drops that segment whole.
func TestOpenSegmentDirChecksManifest(t *testing.T) {
	t.Run("file outside the directory", func(t *testing.T) {
		root := t.TempDir()
		dir := filepath.Join(root, "segs")
		orig := spilledMixedStore(t, 500, SpillConfig{Dir: dir, SegmentRecords: 100})
		orig.Seal()
		outside := orig.spill.segs[0].Records
		if err := os.Rename(filepath.Join(dir, "seg-000001.ndjson"), filepath.Join(root, "outside.ndjson")); err != nil {
			t.Fatal(err)
		}
		rewriteManifest(t, dir, func(m *manifest) { m.Segments[0].File = "../outside.ndjson" })

		_, _, err := OpenSegmentDir(dir, ReadOptions{})
		if err == nil {
			t.Fatal("strict open read a segment named outside its directory")
		}
		for _, want := range []string{ManifestName, `"../outside.ndjson"`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		}

		got, st, err := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := orig.Len() - outside; st.Records != want || got.Len() != want {
			t.Fatalf("SkipCorrupt open holds %d records (stats %d), want the directory's %d",
				got.Len(), st.Records, want)
		}
		if st.Meta != (Meta{}) {
			t.Fatalf("SkipCorrupt open kept the distrusted manifest's Meta %+v", st.Meta)
		}
		if !strings.Contains(st.ManifestIgnored, `"../outside.ndjson"`) {
			t.Fatalf("ManifestIgnored = %q, want the outside entry named", st.ManifestIgnored)
		}
	})
	t.Run("entry dropped, total kept", func(t *testing.T) {
		dir := t.TempDir()
		orig := spilledMixedStore(t, 500, SpillConfig{Dir: dir, SegmentRecords: 100})
		orig.Seal()
		rewriteManifest(t, dir, func(m *manifest) { m.Segments = m.Segments[:len(m.Segments)-1] })

		_, _, err := OpenSegmentDir(dir, ReadOptions{})
		if err == nil {
			t.Fatal("strict open of a manifest missing its last segment succeeded")
		}
		for _, want := range []string{ManifestName, fmt.Sprintf("declares %d records", orig.Len())} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		}

		got, st, err := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Segments != orig.SegmentCount() {
			t.Fatalf("SkipCorrupt open found %d segments, want all %d in the directory", st.Segments, orig.SegmentCount())
		}
		if want := fmt.Sprintf("declares %d records", orig.Len()); !strings.Contains(st.ManifestIgnored, want) {
			t.Fatalf("ManifestIgnored = %q, want it to say the manifest %s", st.ManifestIgnored, want)
		}
		assertStoresEqual(t, got, orig)
	})
	t.Run("entry listed twice", func(t *testing.T) {
		dir := t.TempDir()
		sameTimeSegments(t, dir, 10, 5)
		rewriteManifest(t, dir, func(m *manifest) {
			m.Segments = append(m.Segments, m.Segments[0])
			m.Records += m.Segments[0].Records
		})

		_, _, err := OpenSegmentDir(dir, ReadOptions{})
		if err == nil {
			t.Fatal("strict open of a manifest listing a segment twice succeeded")
		}
		for _, want := range []string{ManifestName, `"seg-000001.ndjson" is listed twice`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		}

		got, st, err := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Segments != 2 || got.Len() != 10 {
			t.Fatalf("SkipCorrupt open holds %d records in %d segments, want the directory's 10 in 2", got.Len(), st.Segments)
		}
		if !strings.Contains(st.ManifestIgnored, "listed twice") {
			t.Fatalf("ManifestIgnored = %q, want the repeated entry named", st.ManifestIgnored)
		}
	})
	t.Run("entry declares zero records", func(t *testing.T) {
		dir := t.TempDir()
		sameTimeSegments(t, dir, 15, 5)
		rewriteManifest(t, dir, func(m *manifest) {
			m.Segments[0].Records = 0
			m.Segments[0].First, m.Segments[0].Last = time.Time{}, time.Time{}
			m.Records = 10
		})

		_, _, err := OpenSegmentDir(dir, ReadOptions{})
		if err == nil {
			t.Fatal("strict open of a segment whose manifest entry declares 0 records succeeded")
		}
		if !strings.Contains(err.Error(), "seg-000001.ndjson") {
			t.Fatalf("error %q does not name the segment file", err)
		}

		got, st, err := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.SegmentsDropped != 1 || st.Dropped != 5 {
			t.Fatalf("SegmentsDropped = %d, Dropped = %d, want 1 and 5", st.SegmentsDropped, st.Dropped)
		}
		if st.Segments != 2 || st.Records != 10 || got.Len() != 10 {
			t.Fatalf("SkipCorrupt open holds %d records (stats %d) in %d segments, want 10 in 2",
				got.Len(), st.Records, st.Segments)
		}
	})
	// A segment that decodes but fails its entry's count check is dropped
	// with the records it held, whatever count the entry declares.
	for _, forged := range []int{-5, 1000} {
		t.Run(fmt.Sprintf("entry declares %d records", forged), func(t *testing.T) {
			dir := t.TempDir()
			sameTimeSegments(t, dir, 15, 5)
			rewriteManifest(t, dir, func(m *manifest) {
				m.Segments[0].Records = forged
				m.Records = forged + 10
			})
			_, st, err := OpenSegmentDir(dir, ReadOptions{SkipCorrupt: true})
			if err != nil {
				t.Fatal(err)
			}
			if st.Dropped != 5 || st.SegmentsDropped != 1 || st.Records != 10 {
				t.Fatalf("Dropped = %d, SegmentsDropped = %d, Records = %d; want 5, 1 and 10",
					st.Dropped, st.SegmentsDropped, st.Records)
			}
		})
	}
}

// sameTimeSegments spills n logins of distinct accounts into dir in
// segments of per records. Every record carries t0, so the segments pass
// the order checks in any arrangement.
func sameTimeSegments(t testing.TB, dir string, n, per int) {
	t.Helper()
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: dir, SegmentRecords: per}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Append(login(t0, identity.AccountID(i+1), event.ActorOwner))
	}
	s.Seal()
}

// Streaming a monolithic dump into segments must preserve every record and
// the dump's provenance, without ever materializing the whole log.
func TestResegmentNDJSONFile(t *testing.T) {
	src := mixedStore(600)
	src.Seal()
	path := filepath.Join(t.TempDir(), "dump.ndjson.gz")
	if err := WriteNDJSONFile(path, src, testMeta); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, st, err := ResegmentNDJSONFile(path, SpillConfig{Dir: dir, SegmentRecords: 110}, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != src.Len() || st.Meta != testMeta {
		t.Fatalf("stats = %+v, want %d records with meta %+v", st, src.Len(), testMeta)
	}
	if got.SegmentCount() < 3 {
		t.Fatalf("resegment made %d segments, want several", got.SegmentCount())
	}
	assertStoresEqual(t, got, src)

	// The directory must reopen on its own with the inherited metadata.
	reopened, rst, err := OpenSegmentDir(dir, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rst.Meta != testMeta {
		t.Fatalf("reopened Meta = %+v, want %+v", rst.Meta, testMeta)
	}
	assertStoresEqual(t, reopened, src)
}

// A strict resegment that fails after its first segment seal leaves no
// segment write or decode job running: line 401 of a 500-record dump is
// malformed, after seven 50-record segments went to writes three deep.
func TestResegmentFailureStopsWriters(t *testing.T) {
	lines := loginDump(t, 500)
	lines[400] = brokenLine
	path := filepath.Join(t.TempDir(), "dump.ndjson")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	_, _, err := ResegmentNDJSONFile(path, SpillConfig{Dir: t.TempDir(), SegmentRecords: 50, Writers: 3}, ReadOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 401:") {
		t.Fatalf("err = %v, want line 401", err)
	}
	// A job's goroutine that has handed back its result may take a moment
	// to exit; one left blocked never does.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines went from %d to %d: the failed resegment left workers running",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// A segment write that fails during a resegment comes back as an error
// naming the segment, not as Append's or Seal's panic, and leaves no
// manifest. A directory holds the failing segment's name: segment 2 of a
// 300-record dump, whose failure an append reports or the seal does, and
// segment 6, the last, whose failure only the seal can report. SkipCorrupt
// cannot get past a failed write, so the error is not marked ErrCorrupt.
func TestResegmentWriteFaultReturnsError(t *testing.T) {
	lines := loginDump(t, 300)
	path := filepath.Join(t.TempDir(), "dump.ndjson")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, seg := range []int{2, 6} {
		dir := t.TempDir()
		name := fmt.Sprintf("seg-%06d.ndjson", seg)
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		var err error
		if msg := panicOf(func() {
			_, _, err = ResegmentNDJSONFile(path, SpillConfig{Dir: dir, SegmentRecords: 50, Writers: 2}, ReadOptions{})
		}); msg != "" {
			t.Fatalf("segment %d blocked: resegment panicked: %s", seg, msg)
		}
		if err == nil {
			t.Fatalf("segment %d blocked: resegment returned no error", seg)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("segment %d blocked: err %q is marked ErrCorrupt", seg, err)
		}
		for _, want := range []string{name, fmt.Sprintf("(index %d)", seg)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("segment %d blocked: err %q does not name %q", seg, err, want)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
			t.Fatalf("segment %d blocked: the failed resegment left a manifest (stat err %v)", seg, err)
		}
	}
}

// Misuse guards: spill mode rejects late enablement, build-phase scans,
// and Sanitize (spilled segments are immutable).
func TestSpillMisusePanicsAndErrors(t *testing.T) {
	s := New()
	s.Append(login(t0, 1, event.ActorOwner))
	if err := s.EnableSpill(SpillConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("EnableSpill after an append should fail")
	}

	sp := New()
	if err := sp.EnableSpill(SpillConfig{Dir: t.TempDir(), SegmentRecords: 10}); err != nil {
		t.Fatal(err)
	}
	if err := sp.EnableSpill(SpillConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("double EnableSpill should fail")
	}
	for i := 0; i < 25; i++ {
		sp.Append(login(t0.Add(time.Duration(i)*time.Second), 1, event.ActorOwner))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("build-phase Scan on a spilling store did not panic")
			}
		}()
		sp.Scan(func(event.Event) {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Sanitize on a spilling store did not panic")
			}
		}()
		sp.Sanitize(t0.Add(time.Hour), Retention{Window: time.Minute})
	}()
	sp.Seal()
	if !sp.Segmented() {
		t.Fatal("not segmented after Seal")
	}
}
