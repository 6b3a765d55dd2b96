package logstore

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

// worldLikeStore holds n rounds of the records a simulated world writes
// most: a login from a dotted-quad address and a device, a mail with a
// recipient list, a lure and a page hit, in UTC and in time order.
func worldLikeStore(n int) *Store {
	s := New()
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * 1500 * time.Millisecond)
		acct := identity.AccountID(i%97 + 1)
		victim := identity.Address(fmt.Sprintf("user%d@mail.test", i%211))
		ip := netip.AddrFrom4([4]byte{10, byte(i % 7), byte(i % 13), byte(i % 251)})
		s.Append(event.Login{Base: event.Base{Time: at}, Account: acct, IP: ip,
			DeviceID: fmt.Sprintf("device-%d", i%29), PasswordOK: true, Outcome: event.LoginSuccess,
			RiskScore: 0.25, Session: event.SessionID(i + 1), Actor: event.ActorOwner})
		s.Append(event.MessageSent{Base: event.Base{Time: at}, ID: event.MessageID(i), From: victim,
			FromAcct: acct, Recipients: []identity.Address{"a@mail.test", victim}, Class: event.ClassOrganic,
			Session: event.SessionID(i + 1), Actor: event.ActorOwner})
		s.Append(event.LureSent{Base: event.Base{Time: at}, Campaign: int64(i % 5), Page: 3, Victim: victim,
			Target: event.TargetMail, HasURL: true})
		s.Append(event.PageHit{Base: event.Base{Time: at}, Page: 3, Method: "GET", Victim: victim, IP: ip})
	}
	return s
}

// TestOpenSegmentDirAllocsPerSegment fences verification: opening a
// directory checks every record but builds none, so what it allocates
// grows with its segments, not its records. Four segments of 6000 records
// must open in under 250 allocations a segment; decoding each record, as
// verification once did, takes about five a record.
func TestOpenSegmentDirAllocsPerSegment(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: dir, SegmentRecords: 6000}); err != nil {
		t.Fatal(err)
	}
	src := worldLikeStore(6000)
	src.Scan(s.Append)
	s.Seal()
	if s.SegmentCount() != 4 {
		t.Fatalf("%d segments, want 4", s.SegmentCount())
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, st, err := OpenSegmentDir(dir, ReadOptions{}); err != nil || st.Records != src.Len() {
			t.Fatalf("open: %v records, err %v; want %d", st, err, src.Len())
		}
	})
	t.Logf("opening %d records in 4 segments: %.0f allocs", src.Len(), allocs)
	if allocs > 250*4 {
		t.Errorf("opening %d records in 4 segments allocated %.0f times, want under %d",
			src.Len(), allocs, 250*4)
	}
}

// stamped is what a sink sees of one record.
type stamped struct {
	kind event.Kind
	at   time.Time
}

// readModes reads in with decodeNDJSON in check mode and in build mode
// and returns what each handed over, its stats and its error text.
func readModes(in string, opts ReadOptions) (got [2][]stamped, stats [2]ReadStats, errs [2]string) {
	for i, check := range []bool{true, false} {
		var st ReadStats
		err := decodeNDJSON(strings.NewReader(in), opts, &st, check, func(e event.Event) error {
			got[i] = append(got[i], stamped{e.EventKind(), e.When()})
			return nil
		})
		if err != nil {
			errs[i] = err.Error()
		}
		stats[i] = st
	}
	return got, stats, errs
}

// TestCheckModeMatchesDecode holds check mode to build mode through the
// reader: the same records' kinds and times handed over, the same stats
// and the same errors, strict and tolerant, at one and three shards, over
// a dump whose lines take every path — canonical, spaced out (the
// encoding/json fallback), malformed, of unknown kind, out of order, and
// fewer than the header declares.
func TestCheckModeMatchesDecode(t *testing.T) {
	base := dumpLines(t, worldLikeStore(800))
	for i := 1; i < len(base); i += 7 {
		base[i] = strings.ReplaceAll(base[i], `,"`, `, "`)
	}
	edit := func(f func([]string) []string) string {
		return strings.Join(f(append([]string(nil), base...)), "\n") + "\n"
	}
	inputs := map[string]string{
		"clean":        edit(func(ls []string) []string { return ls }),
		"malformed":    edit(func(ls []string) []string { ls[50] = brokenLine; return ls }),
		"unknown kind": edit(func(ls []string) []string { ls[60] = `{"kind":"no.such_kind","data":{}}`; return ls }),
		"disorder":     edit(func(ls []string) []string { ls[3000], ls[9] = ls[9], ls[3000]; return ls }),
		"short":        edit(func(ls []string) []string { return ls[:len(ls)-5] }),
	}
	for name, in := range inputs {
		for _, opts := range []ReadOptions{{Shards: 1}, {Shards: 3}, {Shards: 1, SkipCorrupt: true}, {Shards: 3, SkipCorrupt: true}} {
			got, stats, errs := readModes(in, opts)
			if !reflect.DeepEqual(got[0], got[1]) || !reflect.DeepEqual(stats[0], stats[1]) || errs[0] != errs[1] {
				t.Errorf("%s, %+v: check mode handed over %d records, %+v, err %q; build mode %d, %+v, err %q",
					name, opts, len(got[0]), stats[0], errs[0], len(got[1]), stats[1], errs[1])
			}
			if name == "clean" && (errs[0] != "" || len(got[0]) != len(base)-1) {
				t.Errorf("clean dump, %+v: %d records, err %q", opts, len(got[0]), errs[0])
			}
		}
	}
}

// TestStrictLoadErrorsMarkCorrupt checks which strict-load errors carry
// ErrCorrupt: each that SkipCorrupt would have got past, and none that it
// could not — a missing file, an unsupported dump or segment layout
// version (and a failed spill write, in
// TestResegmentWriteFaultReturnsError).
func TestStrictLoadErrorsMarkCorrupt(t *testing.T) {
	lines := loginDump(t, 30)
	edit := func(f func([]string) []string) string {
		return strings.Join(f(append([]string(nil), lines...)), "\n") + "\n"
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write([]byte(edit(func(ls []string) []string { return ls })))
	zw.Close()
	dumps := map[string]string{
		"malformed line": edit(func(ls []string) []string { ls[5] = brokenLine; return ls }),
		"unknown kind":   edit(func(ls []string) []string { ls[5] = `{"kind":"no.such_kind","data":{}}`; return ls }),
		"out of order":   edit(func(ls []string) []string { ls[3], ls[9] = ls[9], ls[3]; return ls }),
		"truncated":      edit(func(ls []string) []string { return ls[:len(ls)-3] }),
		"overfull": edit(func(ls []string) []string {
			ls[0] = strings.Replace(ls[0], `"records":30`, `"records":20`, 1)
			return ls
		}),
		"cut gzip": zipped.String()[:zipped.Len()-20],
	}
	for name, in := range dumps {
		_, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{})
		if err == nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s dump: strict load error %v, want one marked ErrCorrupt", name, err)
		}
	}
	src := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(src, []byte(dumps["malformed line"]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResegmentNDJSONFile(src, SpillConfig{Dir: t.TempDir(), SegmentRecords: 10}, ReadOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("resegmenting a malformed dump: error %v, want one marked ErrCorrupt", err)
	}

	dirs := map[string]func(dir string, s *Store){
		"corrupt segment": func(dir string, s *Store) { corruptSegment(t, filepath.Join(dir, s.spill.segs[1].File)) },
		"missing segment": func(dir string, s *Store) { os.Remove(filepath.Join(dir, s.spill.segs[1].File)) },
		"no manifest":     func(dir string, _ *Store) { os.Remove(filepath.Join(dir, ManifestName)) },
		"malformed manifest": func(dir string, _ *Store) {
			os.WriteFile(filepath.Join(dir, ManifestName), []byte("{"), 0o644)
		},
		"manifest count": func(dir string, _ *Store) { rewriteManifest(t, dir, func(m *manifest) { m.Records++ }) },
	}
	for name, damage := range dirs {
		dir := t.TempDir()
		s := spilledMixedStore(t, 300, SpillConfig{Dir: dir, SegmentRecords: 100})
		s.Seal()
		damage(dir, s)
		if _, _, err := OpenSegmentDir(dir, ReadOptions{}); err == nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: strict open error %v, want one marked ErrCorrupt", name, err)
		}
	}

	unmarked := map[string]error{}
	_, _, unmarked["missing file"] = ReadNDJSONFile(filepath.Join(t.TempDir(), "absent.ndjson"), ReadOptions{})
	_, _, unmarked["unsupported dump version"] = ReadNDJSONWith(strings.NewReader(
		`{"format":"manualhijack-ndjson","version":99,"records":0}`+"\n"), ReadOptions{})
	layout := t.TempDir()
	spilledMixedStore(t, 300, SpillConfig{Dir: layout, SegmentRecords: 100}).Seal()
	rewriteManifest(t, layout, func(m *manifest) { m.Version = 99 })
	_, _, unmarked["unsupported segment layout"] = OpenSegmentDir(layout, ReadOptions{})
	for name, err := range unmarked {
		if err == nil || errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want one not marked ErrCorrupt", name, err)
		}
	}
}
