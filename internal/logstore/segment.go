package logstore

// Segmented spill-to-disk operation. The paper's datasets were aggregated
// from production logs "via map-reduce computation" — logs far too large
// for any single machine's RAM. This file gives the store the same shape:
// during the single-writer build phase, time-contiguous segments seal at a
// record threshold and spill to versioned NDJSON(.gz) segment files, each
// written on the ordered window (window.go) while the writer keeps
// appending, so the store holds only the active segment and the few being
// written. After Seal, every read is an ordered scan that decodes segments
// back in log order, a few ahead of the one being read, on the same
// window, and keeps none once it returns — analyses run over million-user
// worlds in RAM bounded by the segment size, not the world size.
//
// A segment file is a version-2 dump of the segment's records, written by
// the function that writes a dump, with the header's start/end carrying
// the segment's own first/last record timestamps, and it loads through the
// same decoder as a dump. A manifest.json, written last at Seal, ties the
// directory together: the world's observation window and seed, plus
// per-segment record counts, time bounds, and kind tallies (which answer
// KindCounts without a read). A directory without one is a spill that
// never reached Seal.

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"manualhijack/internal/event"
)

const (
	// SegmentFormatName tags manifest.json in a segment directory.
	SegmentFormatName = "manualhijack-segments"
	// SegmentFormatVersion is the segment-directory layout version.
	SegmentFormatVersion = 1
	// ManifestName is the directory-level metadata file.
	ManifestName = "manifest.json"
	// DefaultSegmentRecords is the seal threshold when SpillConfig leaves
	// SegmentRecords unset: big enough that segment count stays in the
	// dozens at production scale, small enough that one segment is a
	// rounding error next to a scale-1.0 world.
	DefaultSegmentRecords = 100_000
)

// SpillConfig configures segmented spill-to-disk operation (EnableSpill).
type SpillConfig struct {
	// Dir receives the segment files and manifest; created if absent.
	Dir string
	// SegmentRecords seals the active segment at this many records
	// (<= 0 means DefaultSegmentRecords).
	SegmentRecords int
	// Writers bounds the segment writes in flight (<= 0 means 1). Each
	// sealed segment is written on a goroutine of its own, which absorbs
	// the JSON encode, compression and disk I/O while the append goroutine
	// keeps simulating. With Writers writes in flight, the next seal first
	// waits for the oldest and reuses its cleared array as the active
	// segment; no segment waits in a queue, so RAM holds at most
	// Writers+1 segments.
	Writers int
	// Compress gzips segment files at gzip.BestSpeed: the spill path
	// favors throughput (archival dumps via WriteNDJSONFile keep
	// gzip.DefaultCompression).
	Compress bool
	// ScanWorkers sets how many segments an ordered scan decodes ahead
	// of the one being folded (<= 0 means 1, the classic
	// prefetch-next). Delivery order is unaffected — builders always
	// see segments in log order — only the decode overlaps. A scan
	// holds at most ScanWorkers+1 decoded segments: the one being
	// folded and the window ahead of it.
	ScanWorkers int
	// Meta is the world-level metadata (observation window, seed) written
	// to the manifest, exactly like a monolithic dump header.
	Meta Meta
}

// segmentInfo is one sealed segment's manifest entry.
type segmentInfo struct {
	File    string             `json:"file"`
	Records int                `json:"records"`
	First   time.Time          `json:"first"`
	Last    time.Time          `json:"last"`
	Kinds   map[event.Kind]int `json:"kinds"`
	// globbed marks an entry listed from the directory, with no manifest
	// behind it: it carries only its file name, so readSegment has
	// nothing to check it against.
	globbed bool
}

// manifest is the directory-level metadata file.
type manifest struct {
	Format   string        `json:"format"`
	Version  int           `json:"version"`
	Start    time.Time     `json:"start"`
	End      time.Time     `json:"end"`
	Seed     int64         `json:"seed"`
	Records  int           `json:"records"`
	Segments []segmentInfo `json:"segments"`
}

// spillState is the segmented half of a Store. During the build phase it
// writes sealed segments on its window; after Seal every read decodes its
// segments from disk.
type spillState struct {
	cfg SpillConfig
	// segs lists the spilled segments' manifest entries in segment order.
	// During the build a write's entry joins it when the window hands the
	// write back; Seal writes the manifest from it.
	segs []segmentInfo
	// spilled is the total record count handed to the writes.
	spilled int
	// seq numbers the next segment (0-based).
	seq int

	// writes holds the segment writes in flight, at most cfg.Writers; err
	// is the first write error in segment order among those handed back.
	writes *window[segmentWrite]
	err    error
	// failed flips when a write fails; Append checks it so the error
	// surfaces at the next append, not segments later.
	failed atomic.Bool

	// finished flips when Seal writes the manifest; from then on reads
	// decode segs. Published by Seal's release-store like the rest of the
	// sealed state.
	finished bool
}

// segmentWrite is what a segment write hands back: the segment's manifest
// entry, the write's error, and its array, cleared for reuse.
type segmentWrite struct {
	info   segmentInfo
	err    error
	events []event.Event
}

// EnableSpill switches an empty, unsealed store into segmented
// spill-to-disk mode. It must be called before the first Append (the
// segment sequence must cover the whole log) and follows the build-phase
// contract: writer goroutine only.
func (s *Store) EnableSpill(cfg SpillConfig) error {
	if s.sealed.Load() {
		return fmt.Errorf("logstore: EnableSpill on sealed store")
	}
	if len(s.events) > 0 {
		return fmt.Errorf("logstore: EnableSpill after %d appends (must precede the first)", len(s.events))
	}
	if s.spill != nil {
		return fmt.Errorf("logstore: EnableSpill called twice")
	}
	if s.writeOnly {
		return fmt.Errorf("logstore: EnableSpill on a write-only store")
	}
	if cfg.Dir == "" {
		return fmt.Errorf("logstore: EnableSpill requires a directory")
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = DefaultSegmentRecords
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("logstore: spill dir: %w", err)
	}
	s.spill = &spillState{cfg: cfg, writes: newWindow[segmentWrite](cfg.Writers)}
	return nil
}

// Segmented reports whether the sealed store serves its records from
// spilled segment files rather than from RAM.
func (s *Store) Segmented() bool { return s.spill != nil && s.spill.finished }

// SegmentCount returns the number of sealed, spilled segments.
func (s *Store) SegmentCount() int {
	if s.spill == nil {
		return 0
	}
	return len(s.spill.segs)
}

// spillActive starts the filled active segment's write on the window, so
// the append goroutine pays only the kind tally: the JSON encode,
// compression and disk write run on the write's goroutine. With Writers
// writes in flight it first waits for the oldest (backpressure: unwritten
// segments must not pile up in RAM), and that write's cleared array
// becomes the next active segment. No-op when the active segment is empty.
func (s *Store) spillActive() {
	sp, events := s.spill, s.events
	if len(events) == 0 {
		return
	}
	name := fmt.Sprintf("seg-%06d.ndjson", sp.seq+1)
	if sp.cfg.Compress {
		name += ".gz"
	}
	info, seq := summarize(name, events), sp.seq
	sp.seq++
	sp.spilled += len(events)
	if w, ok := sp.writes.add(func() segmentWrite { return sp.write(seq, info, events) }); ok {
		sp.land(w)
		s.events = w.events
	} else {
		s.events = make([]event.Event, 0, cap(events))
	}
}

// write writes one segment file, a dump of its records whose header
// carries the segment's own time bounds, then clears the array so the
// spilled records can be collected while it is reused. A failed write sets
// failed.
func (sp *spillState) write(seq int, info segmentInfo, events []event.Event) segmentWrite {
	meta := Meta{Start: info.First, End: info.Last, Seed: sp.cfg.Meta.Seed}
	err := writeNDJSONFile(filepath.Join(sp.cfg.Dir, info.File), &Store{events: events}, meta, gzip.BestSpeed)
	if err != nil {
		err = fmt.Errorf("segment %s (index %d): %w", info.File, seq+1, err)
		sp.failed.Store(true)
	}
	clear(events)
	return segmentWrite{info: info, err: err, events: events[:0]}
}

// land takes a write the window handed back: its entry joins segs, and its
// error is kept if it is the first.
func (sp *spillState) land(w segmentWrite) {
	sp.segs = append(sp.segs, w.info)
	if sp.err == nil {
		sp.err = w.err
	}
}

// drain waits for every write in flight and returns the first write error
// in segment order. Seal drains before it writes the manifest, Append
// before it reports a failed write, and a resegment that fails before it
// returns, so no write outlives its store.
func (sp *spillState) drain() error {
	for w, ok := sp.writes.next(); ok; w, ok = sp.writes.next() {
		sp.land(w)
	}
	return sp.err
}

// finishSpill writes the final partial segment, drains the window,
// surfaces the first write error, and writes the manifest. Called by Seal
// with the store still unsealed.
func (s *Store) finishSpill() error {
	sp := s.spill
	s.spillActive()
	if err := sp.drain(); err != nil {
		return err
	}
	m := manifest{
		Format:   SegmentFormatName,
		Version:  SegmentFormatVersion,
		Start:    sp.cfg.Meta.Start,
		End:      sp.cfg.Meta.End,
		Seed:     sp.cfg.Meta.Seed,
		Records:  sp.spilled,
		Segments: sp.segs,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(sp.cfg.Dir, ManifestName), data, 0o644); err != nil {
		return err
	}
	// Release the active segment's backing array: the sealed store reads
	// from disk only.
	s.events = nil
	sp.finished = true
	return nil
}

// scanSegments delivers whole decoded segments (with their index) in log
// order — the hook core uses to fold each segment across its builders in
// one decode pass. Up to ScanWorkers segments decode ahead while the
// current one is folded; delivery stays strictly in segment order, so
// float-summation order — and with it report byte-identity — is untouched
// by the parallelism. Segment files are written by this process or
// verified at directory open, so a read failure here is real I/O
// corruption and panics like any other violated store invariant.
func (sp *spillState) scanSegments(fn func(seg int, events []event.Event)) {
	inOrder(sp.segs, sp.cfg.ScanWorkers, func(seg segmentInfo) segmentRead {
		return readSegment(sp.cfg.Dir, seg, false)
	}, func(i int, r segmentRead) error {
		if r.err != nil {
			panic(fmt.Sprintf("logstore: segment %s: %v", sp.segs[i].File, r.err))
		}
		fn(i, r.events)
		return nil
	})
}

// segmentRead is what one job of inOrder makes of a segment: its records
// for a scan, or its summary for verification, and the read's error.
type segmentRead struct {
	events []event.Event
	info   segmentInfo
	err    error
}

// inOrder is the one ordered decode-ahead behind every segment read. It
// runs job on each of segs on the window, at most k at once (k below 1
// means 1), and hands the results to use in segment order, on the calling
// goroutine. Segment i+k's job starts as segment i is handed over, so at
// most k results are in flight or waiting while use holds one. An error
// from use stops the pass and is returned; jobs already started then
// finish and their results are dropped. inOrder keeps nothing once it
// returns.
func inOrder(segs []segmentInfo, k int, job func(segmentInfo) segmentRead, use func(i int, r segmentRead) error) error {
	win := newWindow[segmentRead](min(k, len(segs)))
	i := 0
	for _, seg := range segs {
		r, ok := win.add(func() segmentRead { return job(seg) })
		if !ok {
			continue
		}
		if err := use(i, r); err != nil {
			return err
		}
		i++
	}
	for r, ok := win.next(); ok; r, ok = win.next() {
		if err := use(i, r); err != nil {
			return err
		}
		i++
	}
	return nil
}

// SegmentCacheStats is declared for the benchmark harness in perfbench/,
// whose logstore.cache_* probes name it. Segment reads keep no cache, so
// every count is zero and those probes read 0. It goes when the probes do
// (ROADMAP item 2).
type SegmentCacheStats struct {
	Hits            int64
	Misses          int64
	PrefetchDeduped int64
	Evictions       int64
}

// SegmentCacheStats returns zero; see the type.
func (s *Store) SegmentCacheStats() SegmentCacheStats { return SegmentCacheStats{} }

// readSegment strictly decodes one segment file and checks it against its
// manifest entry; a globbed entry (no manifest) carries only its file
// name, so there is nothing to check it against. A scan keeps the
// records. OpenSegmentDir's verification (check set) keeps none: it reads
// the file in check mode and gets the segment's manifest entry rebuilt
// from its records instead. A segment that fails its check comes back
// with what it decoded; one that does not decode, with no records and an
// entry declaring what want does (floored at 0), which is what a dropped
// segment counts.
func readSegment(dir string, want segmentInfo, check bool) (r segmentRead) {
	r.info = segmentInfo{File: want.File, Records: max(0, want.Records)}
	f, err := os.Open(filepath.Join(dir, want.File))
	if err != nil {
		r.err = err
		return r
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		r.err = err
		return r
	}
	plain, closeFn, err := sniffGzip(f)
	if err != nil {
		r.err = err
		return r
	}
	defer closeFn()
	var sink func(event.Event) error
	if check {
		kinds := make(map[event.Kind]int, 32)
		r.info.Kinds = kinds
		sink = func(e event.Event) error {
			kinds[e.EventKind()]++
			return nil
		}
	} else {
		// Presized from the manifest entry, but to no more than one record
		// per byte of the file, so a forged count cannot force a large
		// allocation (nor a negative one a panic).
		r.events = make([]event.Event, 0, max(0, min(want.Records, int(fi.Size()))))
		sink = func(e event.Event) error {
			r.events = append(r.events, e)
			return nil
		}
	}
	// Inline decode: segment reads already run several segments at once,
	// so sharding inside one segment would just oversubscribe.
	st := &ReadStats{}
	if r.err = decodeNDJSON(plain, ReadOptions{Shards: 1}, st, check, sink); r.err != nil {
		r.events = nil
		return r
	}
	r.info.Records, r.info.First, r.info.Last = st.Records, st.First, st.Last
	switch {
	case want.globbed:
	case st.Records != want.Records:
		r.err = fmt.Errorf("holds %d records, manifest declares %d", st.Records, want.Records)
	case !st.First.Equal(want.First) || !st.Last.Equal(want.Last):
		r.err = fmt.Errorf("record time bounds [%s, %s] disagree with manifest [%s, %s]",
			st.First, st.Last, want.First, want.Last)
	}
	return r
}

// bounds returns the first and last record times, zero for no records.
func bounds(events []event.Event) (first, last time.Time) {
	if len(events) > 0 {
		first, last = events[0].When(), events[len(events)-1].When()
	}
	return first, last
}

// OpenSegmentDir opens a spilled segment directory as a sealed virtual
// store. Every segment is read once up front, in check mode: every line is
// validated as a decode would, but only its kind and time are kept, to
// re-verify per-segment time order, record counts against headers and
// manifest, and cross-segment monotonicity, and to summarize the segment.
// Up to opts.Shards segments (0 means GOMAXPROCS) are verified at a time
// on the ordered window. Reads decode the segments, in order, so peak RAM
// stays O(segment), not O(world).
//
// Strict mode fails on the first problem, and needs the manifest: Seal
// writes it last, so a directory without one is a spill that never
// finished and may be missing segments. With SkipCorrupt, a missing or
// bad manifest is ignored and the directory listed instead, with the
// reason in ReadStats.ManifestIgnored, and a bad segment (any malformed
// line, count mismatch, or disorder against its predecessor) is dropped
// whole and reported in ReadStats.SegmentsDropped — never silently.
func OpenSegmentDir(dir string, opts ReadOptions) (*Store, *ReadStats, error) {
	st := &ReadStats{}
	man, segs, err := loadSegmentList(dir, st, opts)
	if err != nil {
		return nil, nil, err
	}
	if len(segs) == 0 && st.SegmentsDropped == 0 {
		return nil, nil, fmt.Errorf("logstore: %s: no segment files (not a segment directory?)", dir)
	}

	// Verification pass: rebuild each segment's manifest entry from its
	// records' kinds and times, and keep the segments that also respect
	// cross-segment monotonicity (segment i must start no earlier than
	// segment i-1 ended).
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	var kept []segmentInfo
	var last time.Time
	err = inOrder(segs, shards, func(seg segmentInfo) segmentRead {
		return readSegment(dir, seg, true)
	}, func(i int, res segmentRead) error {
		if res.err == nil && len(kept) > 0 && res.info.Records > 0 && res.info.First.Before(last) {
			res.err = fmt.Errorf("starts at %s, before predecessor's last record at %s",
				res.info.First, last)
		}
		if res.err != nil {
			if !opts.SkipCorrupt {
				return corrupt(fmt.Errorf("logstore: segment %s: %w", segs[i].File, res.err))
			}
			st.SegmentsDropped++
			st.Dropped += res.info.Records
			return nil
		}
		if res.info.Records > 0 { // an empty segment is legal, with nothing to serve
			kept = append(kept, res.info)
			last = res.info.Last
			st.Records += res.info.Records
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	st.Segments = len(kept)
	if man != nil {
		st.Meta = Meta{Start: man.Start, End: man.End, Seed: man.Seed}
	}
	if len(kept) > 0 {
		st.First = kept[0].First
		st.Last = kept[len(kept)-1].Last
	}

	s := &Store{spill: &spillState{
		cfg:      SpillConfig{Dir: dir, ScanWorkers: opts.ScanWorkers, Meta: st.Meta},
		segs:     kept,
		spilled:  st.Records,
		finished: true,
	}}
	s.sealed.Store(true)
	return s, st, nil
}

// loadSegmentList reads the manifest. A manifest that is missing,
// malformed or fails check is an error in strict mode and, under
// SkipCorrupt, is ignored, with the reason in ReadStats.ManifestIgnored:
// the directory's segment files are listed instead and served with zero
// Meta. The returned entries carry manifest expectations where known; a
// listed file's entry carries only its name until verification fills it
// in.
func loadSegmentList(dir string, st *ReadStats, opts ReadOptions) (*manifest, []segmentInfo, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	var bad error
	switch {
	case os.IsNotExist(err):
		bad = errors.New("not found: Seal writes it last, so the spill may have stopped with segments unwritten")
	case err != nil:
		return nil, nil, err
	default:
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr != nil || m.Format != SegmentFormatName {
			bad = errors.New("malformed manifest")
		} else if m.Version != SegmentFormatVersion {
			return nil, nil, fmt.Errorf("logstore: %s: unsupported segment layout version %d (reader speaks %d)",
				dir, m.Version, SegmentFormatVersion)
		} else if bad = m.check(); bad == nil {
			return &m, m.Segments, nil
		}
	}
	if !opts.SkipCorrupt {
		return nil, nil, corrupt(fmt.Errorf("logstore: %s/%s: %w", dir, ManifestName, bad))
	}
	st.ManifestIgnored = bad.Error()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.ndjson*"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(matches)
	segs := make([]segmentInfo, 0, len(matches))
	for _, m := range matches {
		segs = append(segs, segmentInfo{File: filepath.Base(m), globbed: true})
	}
	return nil, segs, nil
}

// check rejects a manifest that would read outside its directory, serve
// a segment twice or open a partial log as complete: every entry must
// name a distinct bare segment file, and the entries' records must add up
// to the declared total.
func (m *manifest) check() error {
	sum := 0
	seen := make(map[string]bool, len(m.Segments))
	for i, seg := range m.Segments {
		plain, _ := filepath.Match("seg-*.ndjson", seg.File)
		gz, _ := filepath.Match("seg-*.ndjson.gz", seg.File)
		if !plain && !gz {
			return fmt.Errorf("segment entry %d: file %q is not a bare seg-*.ndjson[.gz] name", i+1, seg.File)
		}
		if seen[seg.File] {
			return fmt.Errorf("segment entry %d: file %q is listed twice", i+1, seg.File)
		}
		seen[seg.File] = true
		sum += seg.Records
	}
	if sum != m.Records {
		return fmt.Errorf("declares %d records, but its %d segment entries hold %d", m.Records, len(m.Segments), sum)
	}
	return nil
}

// summarize rebuilds a segment's manifest entry from its records.
func summarize(file string, events []event.Event) segmentInfo {
	info := segmentInfo{File: file, Records: len(events), Kinds: make(map[event.Kind]int, 32)}
	info.First, info.Last = bounds(events)
	for _, e := range events {
		info.Kinds[e.EventKind()]++
	}
	return info
}

// ResegmentNDJSONFile streams a monolithic dump into a fresh segment
// directory, returning the sealed segmented store. The decoder hands each
// record straight to a spilling store's Append, so peak RAM is the decode
// window plus a segment, not the log — this is how cmd/analyze ingests a
// dump bigger than memory. The directory inherits the dump header's Meta
// unless cfg pins its own.
func ResegmentNDJSONFile(path string, cfg SpillConfig, opts ReadOptions) (*Store, *ReadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	plain, closeFn, err := sniffGzip(f)
	if err != nil {
		return nil, nil, err
	}
	defer closeFn()

	s := New()
	st := &ReadStats{}
	// arm enables spilling at the first record, when the header (if any)
	// has been read, or after the read for a dump with no records.
	arm := func() error {
		if s.spill != nil {
			return nil
		}
		if cfg.Meta == (Meta{}) {
			cfg.Meta = st.Meta
		}
		return s.EnableSpill(cfg)
	}
	// A failed segment write comes back from append or seal as an error
	// naming the segment, never as their panic.
	err = decodeNDJSON(plain, opts, st, false, func(e event.Event) error {
		if err := arm(); err != nil {
			return err
		}
		return s.append(e)
	})
	if err == nil {
		err = arm()
	}
	if err == nil {
		err = s.seal()
	}
	if err != nil {
		if s.spill != nil {
			s.spill.drain()
		}
		return nil, nil, err
	}
	st.Segments = s.SegmentCount()
	return s, st, nil
}
