package logstore

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

var testMeta = Meta{
	Start: t0,
	End:   t0.Add(30 * 24 * time.Hour),
	Seed:  42,
}

// dumpLines writes s with testMeta and returns the dump split into lines
// (header first), for fixture surgery.
func dumpLines(t *testing.T, s *Store) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNDJSONMeta(&buf, s, testMeta); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != s.Len()+1 {
		t.Fatalf("dump has %d lines, want %d records + header", len(lines), s.Len())
	}
	return lines
}

// loginDump dumps n logins, one a second, and returns the dump split into
// lines (header first), for fixture surgery.
func loginDump(t *testing.T, n int) []string {
	t.Helper()
	s := New()
	for i := 0; i < n; i++ {
		s.Append(login(t0.Add(time.Duration(i)*time.Second), identity.AccountID(i+1), event.ActorOwner))
	}
	return dumpLines(t, s)
}

// brokenLine is a record line cut mid-object.
const brokenLine = `{"kind":"auth.login","data":{"broken`

// A dumped log is complete by construction, so loading it must seal, and
// the sealed store's reads must agree with a raw scan of it.
func TestReadNDJSONSealsStore(t *testing.T) {
	src := mixedStore(300)
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sealed() {
		t.Fatal("round-tripped store is not sealed")
	}

	wantLogins := 0
	wantCounts := map[event.Kind]int{}
	got.Scan(func(e event.Event) {
		wantCounts[e.EventKind()]++
		if _, ok := e.(event.Login); ok {
			wantLogins++
		}
	})
	if logins := Select[event.Login](got); len(logins) != wantLogins {
		t.Fatalf("Select = %d, scan says %d", len(logins), wantLogins)
	}
	if counts := got.KindCounts(); !reflect.DeepEqual(counts, wantCounts) {
		t.Fatalf("KindCounts = %v, scan says %v", counts, wantCounts)
	}
}

// write → read → re-write must be byte-identical: the decode loses
// nothing, the encoder is deterministic, and the header (including its
// metadata) round-trips.
func TestNDJSONRewriteByteIdentical(t *testing.T) {
	src := benchStore(2000)
	var first bytes.Buffer
	if err := WriteNDJSONMeta(&first, src, testMeta); err != nil {
		t.Fatal(err)
	}
	loaded, st, err := ReadNDJSONWith(bytes.NewReader(first.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Legacy || st.Meta != testMeta || st.Records != src.Len() {
		t.Fatalf("header did not round-trip: %+v", st)
	}
	if st.First != t0 || st.Last.Before(st.First) {
		t.Fatalf("record time range wrong: %v .. %v", st.First, st.Last)
	}
	var second bytes.Buffer
	if err := WriteNDJSONMeta(&second, loaded, st.Meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-write diverges: %d vs %d bytes", first.Len(), second.Len())
	}
}

// A headerless (version-1) dump still loads, flagged Legacy, with the
// window falling back to the record time range.
func TestNDJSONLegacyHeaderless(t *testing.T) {
	lines := dumpLines(t, mixedStore(50))
	legacy := strings.Join(lines[1:], "\n") + "\n"
	s, st, err := ReadNDJSONWith(strings.NewReader(legacy), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Legacy || st.Meta != (Meta{}) {
		t.Fatalf("legacy dump not flagged: %+v", st)
	}
	if !s.Sealed() || s.Len() != len(lines)-1 {
		t.Fatalf("legacy load: sealed=%v len=%d", s.Sealed(), s.Len())
	}
}

func TestNDJSONUnsupportedVersion(t *testing.T) {
	in := `{"format":"manualhijack-ndjson","version":99,"records":0}` + "\n"
	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version accepted: %v", err)
	}
}

// Strict mode fails on the first bad line and names it; -skip-corrupt
// drops it, reports it, and still seals.
func TestNDJSONCorruptLineModes(t *testing.T) {
	lines := dumpLines(t, mixedStore(40))
	n := len(lines) - 1 // records
	corruptAt := 5      // 1-based input line (a record, not the header)
	lines[corruptAt-1] = `{"kind":"auth.login","data":{"broken`
	in := strings.Join(lines, "\n") + "\n"

	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "line 5") {
		t.Fatalf("strict mode error = %v, want line 5", err)
	}

	s, st, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 1 || st.Records != n-1 || st.Missing != 0 {
		t.Fatalf("tolerant stats = %+v, want 1 dropped of %d", st, n)
	}
	if !s.Sealed() || s.Len() != n-1 {
		t.Fatalf("tolerant load: sealed=%v len=%d want %d", s.Sealed(), s.Len(), n-1)
	}
}

// A line encoding/json rejects fails a strict read, named by its line
// number, even when the fast decoder could read everything else on it: a
// leading zero, a plus sign, a raw control byte in a string. SkipCorrupt
// drops and counts it. A raw invalid UTF-8 byte is valid JSON and loads as
// U+FFFD, as encoding/json decodes it.
func TestNDJSONStrictRejectsNonJSON(t *testing.T) {
	src := mixedStore(40)
	lines := dumpLines(t, src)
	at := -1 // index of the first Search record line
	for i, l := range lines {
		if strings.Contains(l, `"Query":"bank"`) {
			at = i
			break
		}
	}
	if at < 0 || !strings.Contains(lines[at], `"Account":1,`) {
		t.Fatalf("no Search line to mangle in %q", lines)
	}
	mangled := func(old, new string) string {
		bad := append([]string(nil), lines...)
		bad[at] = strings.Replace(bad[at], old, new, 1)
		return strings.Join(bad, "\n") + "\n"
	}
	for _, c := range []struct{ old, new string }{
		{`"Account":1,`, `"Account":01,`},
		{`"Account":1,`, `"Account":+1,`},
		{`"Query":"bank"`, "\"Query\":\"ba\x01nk\""},
	} {
		in := mangled(c.old, c.new)
		want := fmt.Sprintf("line %d:", at+1)
		if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("strict read of %q: err = %v, want %q", c.new, err, want)
		}
		s, st, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{SkipCorrupt: true})
		if err != nil || st.Dropped != 1 || s.Len() != src.Len()-1 {
			t.Errorf("tolerant read of %q: err=%v stats=%+v, want 1 of %d dropped", c.new, err, st, src.Len())
		}
	}

	s, err := ReadNDJSON(strings.NewReader(mangled(`"Query":"bank"`, "\"Query\":\"ba\xffnk\"")))
	if err != nil {
		t.Fatal(err)
	}
	if q := Select[event.Search](s)[0].Query; q != "ba\U0000FFFDnk" {
		t.Fatalf("invalid UTF-8 loaded as %q, want U+FFFD in its place", q)
	}
}

// A dump cut mid-record (crash-durable write) is a truncated trailing
// line: strict refuses, tolerant keeps the complete prefix and reports
// both the dropped partial line and the header shortfall.
func TestNDJSONTruncatedTail(t *testing.T) {
	lines := dumpLines(t, mixedStore(30))
	n := len(lines) - 1
	wholeLoss := 2 // drop two full records, then half of a third
	kept := lines[:len(lines)-wholeLoss]
	lastIdx := len(kept) - 1
	kept[lastIdx] = kept[lastIdx][:len(kept[lastIdx])/2]
	in := strings.Join(kept, "\n")

	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil {
		t.Fatal("strict mode accepted a truncated dump")
	}

	s, st, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := n - wholeLoss - 1
	if st.Records != wantRecords || st.Dropped != 1 || st.Missing != wholeLoss {
		t.Fatalf("tolerant stats = %+v, want records=%d dropped=1 missing=%d",
			st, wantRecords, wholeLoss)
	}
	if s.Len() != wantRecords || !s.Sealed() {
		t.Fatalf("store len=%d sealed=%v", s.Len(), s.Sealed())
	}
}

// Losing exactly whole lines leaves no malformed line behind — only the
// header's record count exposes the truncation.
func TestNDJSONHeaderCountCatchesCleanTruncation(t *testing.T) {
	lines := dumpLines(t, mixedStore(20))
	in := strings.Join(lines[:len(lines)-3], "\n") + "\n"
	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("clean truncation not caught: %v", err)
	}
	_, st, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Missing != 3 || st.Dropped != 0 {
		t.Fatalf("tolerant stats = %+v, want missing=3", st)
	}
}

// A strict load names the first bad line even when the input is also cut
// after it: a gzip dump of 30 logins with line 13 malformed and the last
// 20 bytes of the stream gone. Both loaders, at one and two shards, must
// blame line 13, not the cut.
func TestStrictLoadNamesFirstBadLineBeforeCut(t *testing.T) {
	lines := loginDump(t, 30)
	lines[12] = brokenLine
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	in := buf.Bytes()[:buf.Len()-20]
	path := filepath.Join(t.TempDir(), "cut.ndjson.gz")
	if err := os.WriteFile(path, in, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		opts := ReadOptions{Shards: shards}
		if _, _, err := ReadNDJSONWith(bytes.NewReader(in), opts); err == nil || !strings.Contains(err.Error(), "line 13:") {
			t.Errorf("ReadNDJSONWith, %d shard(s): err = %v, want line 13", shards, err)
		}
		if _, _, err := ResegmentNDJSONFile(path, SpillConfig{Dir: t.TempDir()}, opts); err == nil || !strings.Contains(err.Error(), "line 13:") {
			t.Errorf("ResegmentNDJSONFile, %d shard(s): err = %v, want line 13", shards, err)
		}
	}
}

// Records must be time-ordered; the reader verifies instead of trusting.
func TestNDJSONOutOfOrder(t *testing.T) {
	s := New()
	s.Append(login(t0, 1, event.ActorOwner))
	s.Append(login(t0.Add(time.Minute), 2, event.ActorOwner))
	s.Append(login(t0.Add(2*time.Minute), 3, event.ActorOwner))
	lines := dumpLines(t, s)
	lines[2], lines[3] = lines[3], lines[2] // swap the 2nd and 3rd records

	in := strings.Join(lines, "\n") + "\n"
	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "out-of-order") {
		t.Fatalf("disorder accepted: %v", err)
	}

	got, st, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.OutOfOrder != 1 || got.Len() != 2 {
		t.Fatalf("tolerant disorder: stats=%+v len=%d", st, got.Len())
	}
}

// Gzip round trip: WriteNDJSONFile compresses on a .gz path, and the
// reader detects gzip by magic bytes (no filename needed).
func TestNDJSONGzipRoundTrip(t *testing.T) {
	src := mixedStore(200)
	path := filepath.Join(t.TempDir(), "world.ndjson.gz")
	if err := WriteNDJSONFile(path, src, testMeta); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf(".gz file is not gzip (starts %x)", raw[:2])
	}

	got, st, err := ReadNDJSONFile(path, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != src.Len() || !got.Sealed() || st.Meta != testMeta {
		t.Fatalf("gzip round trip: len=%d sealed=%v meta=%+v", got.Len(), got.Sealed(), st.Meta)
	}

	// Magic-byte detection from a bare reader, too.
	got2, _, err := ReadNDJSONWith(bytes.NewReader(raw), ReadOptions{})
	if err != nil || got2.Len() != src.Len() {
		t.Fatalf("magic-byte gzip read: len=%d err=%v", got2.Len(), err)
	}

	// A gzip stream cut mid-member is tolerated only with -skip-corrupt.
	cut := raw[:len(raw)*2/3]
	if _, _, err := ReadNDJSONWith(bytes.NewReader(cut), ReadOptions{}); err == nil {
		t.Fatal("strict mode accepted a cut gzip stream")
	}
	_, st3, err := ReadNDJSONWith(bytes.NewReader(cut), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Truncated {
		t.Fatalf("cut gzip not flagged truncated: %+v", st3)
	}
}

func TestNDJSONPlainFileRoundTrip(t *testing.T) {
	src := mixedStore(100)
	path := filepath.Join(t.TempDir(), "world.ndjson")
	if err := WriteNDJSONFile(path, src, testMeta); err != nil {
		t.Fatal(err)
	}
	got, st, err := ReadNDJSONFile(path, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != src.Len() || st.Meta.Seed != testMeta.Seed {
		t.Fatalf("plain file round trip: len=%d meta=%+v", got.Len(), st.Meta)
	}
}

// The sharded parallel decode must be a pure performance change: any
// shard count yields the same store and stats, in both modes.
func TestNDJSONParallelMatchesSequential(t *testing.T) {
	lines := dumpLines(t, benchStore(10000))
	lines[17] = "garbage"        // malformed
	lines[4003] = `{"kind":"x"}` // unknown kind
	in := strings.Join(lines, "\n") + "\n"

	var wantStore *Store
	var wantStats *ReadStats
	for _, shards := range []int{1, 2, 8} {
		s, st, err := ReadNDJSONWith(strings.NewReader(in),
			ReadOptions{SkipCorrupt: true, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if wantStore == nil {
			wantStore, wantStats = s, st
			if st.Dropped != 2 {
				t.Fatalf("fixture should drop 2 lines, got %+v", st)
			}
			continue
		}
		if !reflect.DeepEqual(st, wantStats) {
			t.Fatalf("shards=%d stats diverge: %+v vs %+v", shards, st, wantStats)
		}
		if s.Len() != wantStore.Len() || !reflect.DeepEqual(s.KindCounts(), wantStore.KindCounts()) {
			t.Fatalf("shards=%d store diverges", shards)
		}
	}

	// Strict mode: every shard count reports the same first bad line.
	for _, shards := range []int{1, 2, 8} {
		_, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{Shards: shards})
		if err == nil || !strings.Contains(err.Error(), "line 18") {
			t.Fatalf("shards=%d: first-bad-line = %v, want line 18", shards, err)
		}
	}
}

// Blank lines are ignored but still count toward reported line numbers.
func TestNDJSONBlankLines(t *testing.T) {
	lines := dumpLines(t, mixedStore(10))
	withBlanks := lines[0] + "\n\n" + strings.Join(lines[1:], "\n\n") + "\n"
	s, st, err := ReadNDJSONWith(strings.NewReader(withBlanks), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(lines)-1 || st.Dropped != 0 {
		t.Fatalf("blank lines mishandled: len=%d stats=%+v", s.Len(), st)
	}
}

// The all-kinds fixture in logstore_test.go must cover the full codec
// vocabulary — a new event type cannot ship without dump/load coverage.
func TestNDJSONVocabularyComplete(t *testing.T) {
	kinds := event.RegisteredKinds()
	if len(kinds) != 28 {
		t.Fatalf("registered kinds = %d; update the all-kinds round-trip fixture and this count", len(kinds))
	}
}

// A tolerant read of a pristine dump reports a clean bill of health.
func TestNDJSONSkipCorruptCleanInput(t *testing.T) {
	var buf bytes.Buffer
	src := mixedStore(60)
	if err := WriteNDJSONMeta(&buf, src, testMeta); err != nil {
		t.Fatal(err)
	}
	_, st, err := ReadNDJSONWith(&buf, ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped+st.OutOfOrder+st.Missing != 0 || st.Truncated || st.Records != src.Len() {
		t.Fatalf("clean input reported dirty: %+v", st)
	}
}

// appendNaNLogin appends a valid login and then one whose RiskScore is
// NaN, which encoding/json cannot marshal.
func appendNaNLogin(s *Store) {
	s.Append(login(t0, 1, event.ActorOwner))
	bad := login(t0.Add(time.Second), 2, event.ActorOwner)
	bad.RiskScore = math.NaN()
	s.Append(bad)
}

// A record with no JSON encoding fails the dump with an error naming its
// kind, not a line no reader accepts.
func TestWriteNDJSONNamesUnencodableKind(t *testing.T) {
	s := New()
	appendNaNLogin(s)
	err := WriteNDJSON(io.Discard, s)
	if err == nil || !strings.Contains(err.Error(), string(event.KindLogin)) {
		t.Fatalf("WriteNDJSON = %v, want an error naming %s", err, event.KindLogin)
	}
}

// The same record in a spilled store fails its segment's write, and Seal
// reports the kind and the segment.
func TestSpillNamesUnencodableKindAndSegment(t *testing.T) {
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	appendNaNLogin(s)
	msg := func() (m string) {
		defer func() {
			if r := recover(); r != nil {
				m = fmt.Sprint(r)
			}
		}()
		s.Seal()
		return ""
	}()
	for _, want := range []string{"logstore: spill:", "seg-000001", string(event.KindLogin)} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Seal panic %q does not name %q", msg, want)
		}
	}
}
