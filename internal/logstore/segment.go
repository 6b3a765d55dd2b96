package logstore

// Segmented spill-to-disk operation. The paper's datasets were aggregated
// from production logs "via map-reduce computation" — logs far too large
// for any single machine's RAM. This file gives the store the same shape:
// during the single-writer build phase, time-contiguous segments seal at a
// record threshold and spill to versioned NDJSON(.gz) segment files, so
// the store holds only the active segment plus a small decoded-segment
// cache. After Seal, every read is an ordered scan that streams segments
// back through the cache in log order — analyses run over million-user
// worlds in RAM bounded by the segment size, not the world size.
//
// Segment files reuse the version-2 dump format verbatim (one header line,
// then envelope lines), with the header's start/end carrying the segment's
// own first/last record timestamps, and load through the same decoder as a
// dump. A manifest.json ties the directory together: the world's
// observation window and seed, plus per-segment record counts, time
// bounds, and kind tallies (which answer KindCounts without a read).

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
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
	// Writers sizes the background encode/write pool that seals segments
	// off the append path (<= 0 means 1). The append goroutine only
	// hands the filled segment over and keeps simulating; writers absorb
	// the JSON encode, compression, and disk I/O.
	Writers int
	// Compress gzips segment files at gzip.BestSpeed: the spill path
	// favors throughput (archival dumps via WriteNDJSONFile keep
	// gzip.DefaultCompression).
	Compress bool
	// ScanWorkers sets how many segments an ordered scan decodes ahead
	// of the one being folded (<= 0 means 1, the classic
	// prefetch-next). Delivery order is unaffected — builders always
	// see segments in log order — only the decode overlaps. The
	// decoded-segment cache holds ScanWorkers+1 segments: the one being
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
// tracks segments handed to the writer pool; after Seal the cache serves
// every read.
type spillState struct {
	cfg SpillConfig
	// segs lists sealed, spilled segments in time order. During an async
	// build it is empty; finishSpill assembles it from results after the
	// pipeline drains.
	segs []segmentInfo
	// spilled is the total record count handed to the pipeline.
	spilled int
	// seq numbers the next segment (0-based).
	seq int

	// Writer pool, started lazily at the first segment seal. work is the
	// bounded handoff (cap = pool size — the append goroutine blocks
	// rather than letting unwritten segments pile up in RAM); free
	// recycles cleared backing arrays so steady-state appends never
	// allocate a segment.
	work chan spillJob
	free chan []event.Event
	wg   sync.WaitGroup

	// resMu guards results: seq → outcome, consumed by finishSpill.
	resMu   sync.Mutex
	results map[int]spillResult

	// failed flips on the first write error; Append checks it so the
	// error surfaces at the next append, not segments later. firstErr
	// keeps the lowest-index error (workers may fail out of order).
	failed  atomic.Bool
	werrMu  sync.Mutex
	werr    error
	werrSeq int

	// finished flips when Seal writes the manifest; from then on reads go
	// through the cache. Published by Seal's release-store like the rest
	// of the sealed state.
	finished bool
	cache    *segCache
}

// spillJob is one filled segment in flight to the writer pool. The
// events slice is owned by the worker until it lands on free.
type spillJob struct {
	seq    int
	events []event.Event
	info   segmentInfo
}

// spillResult is one worker's outcome, keyed by segment sequence.
type spillResult struct {
	info segmentInfo
	err  error
}

// recordErr notes a segment write failure, keeping the lowest-index one.
func (sp *spillState) recordErr(seq int, err error) {
	sp.werrMu.Lock()
	if sp.werr == nil || seq < sp.werrSeq {
		sp.werr, sp.werrSeq = err, seq
	}
	sp.werrMu.Unlock()
	sp.failed.Store(true)
}

// firstErr returns the lowest-index segment write error, if any.
func (sp *spillState) firstErr() error {
	if !sp.failed.Load() {
		return nil
	}
	sp.werrMu.Lock()
	defer sp.werrMu.Unlock()
	return sp.werr
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
	if cfg.Writers <= 0 {
		cfg.Writers = 1
	}
	if cfg.ScanWorkers <= 0 {
		cfg.ScanWorkers = 1
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("logstore: spill dir: %w", err)
	}
	s.spill = &spillState{cfg: cfg}
	return nil
}

// Segmented reports whether the sealed store serves its records from
// spilled segment files through the cache rather than from RAM.
func (s *Store) Segmented() bool { return s.spill != nil && s.spill.finished }

// SegmentCount returns the number of sealed, spilled segments.
func (s *Store) SegmentCount() int {
	if s.spill == nil {
		return 0
	}
	return len(s.spill.segs)
}

// startWriters arms the background encode/write pool. Lazy: stores that
// never fill a segment never spawn goroutines.
func (sp *spillState) startWriters() {
	w := sp.cfg.Writers
	sp.work = make(chan spillJob, w)
	// One array per in-flight job (queued + being written) plus the
	// active segment can circulate; size free so a cleared array is
	// never dropped and re-allocated.
	sp.free = make(chan []event.Event, 2*w+2)
	sp.results = make(map[int]spillResult, 64)
	sp.wg.Add(w)
	for i := 0; i < w; i++ {
		go sp.writeLoop()
	}
}

func (sp *spillState) writeLoop() {
	defer sp.wg.Done()
	for job := range sp.work {
		err := writeSegmentFile(filepath.Join(sp.cfg.Dir, job.info.File), job.events, job.info, sp.cfg)
		if err != nil {
			err = fmt.Errorf("segment %s (index %d): %w", job.info.File, job.seq+1, err)
			sp.recordErr(job.seq, err)
		}
		sp.resMu.Lock()
		sp.results[job.seq] = spillResult{info: job.info, err: err}
		sp.resMu.Unlock()
		// Recycle the backing array to the append goroutine. Cleared
		// first so spilled records become collectable even while the
		// array waits on the free list.
		clearEvents(job.events)
		select {
		case sp.free <- job.events[:0]:
		default:
		}
	}
}

// spillActive hands the filled active segment to the writer pool and
// swaps in a recycled backing array, so the append goroutine pays only
// the kind tally and the channel send — the JSON encode, compression,
// and disk write happen on the pool. Blocks only when every writer is
// busy and the queue is full (backpressure: unwritten segments must not
// accumulate in RAM). No-op when the active segment is empty.
func (s *Store) spillActive() error {
	sp := s.spill
	if err := sp.firstErr(); err != nil {
		return err
	}
	n := len(s.events)
	if n == 0 {
		return nil
	}
	if sp.work == nil {
		sp.startWriters()
	}
	name := fmt.Sprintf("seg-%06d.ndjson", sp.seq+1)
	if sp.cfg.Compress {
		name += ".gz"
	}
	info := segmentInfo{
		File:    name,
		Records: n,
		First:   s.events[0].When(),
		Last:    s.last,
		Kinds:   make(map[event.Kind]int, 32),
	}
	for _, e := range s.events {
		info.Kinds[e.EventKind()]++
	}
	sp.work <- spillJob{seq: sp.seq, events: s.events, info: info}
	sp.seq++
	sp.spilled += n
	var next []event.Event
	select {
	case next = <-sp.free:
	default:
		// Pool ramp-up (or a dropped array under a full free list):
		// allocate a fresh segment at the same capacity.
		next = make([]event.Event, 0, cap(s.events))
	}
	s.events = next
	return nil
}

// clearEvents zeroes the slice so spilled records become collectable even
// while the backing array is reused.
func clearEvents(events []event.Event) {
	for i := range events {
		events[i] = nil
	}
}

// writeSegmentFile dumps one segment in the version-2 wire format, header
// start/end being the segment's own record-time bounds.
func writeSegmentFile(path string, events []event.Event, info segmentInfo, cfg SpillConfig) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("logstore: close %s: %w", path, cerr)
		}
	}()
	var w io.Writer = f
	var zw *gzip.Writer
	if cfg.Compress {
		zw, _ = gzip.NewWriterLevel(f, gzip.BestSpeed) // errs only on an invalid level
		w = zw
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	ew := &envelopeWriter{w: bw}
	if err := json.NewEncoder(bw).Encode(header{
		Format:  FormatName,
		Version: FormatVersion,
		Records: info.Records,
		Start:   info.First,
		End:     info.Last,
		Seed:    cfg.Meta.Seed,
	}); err != nil {
		return err
	}
	for _, e := range events {
		if err := ew.writeEvent(e); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if zw != nil {
		return zw.Close()
	}
	return nil
}

// finishSpill flushes the final partial segment, drains the writer pool,
// surfaces the first write error, writes the manifest, and arms the
// segment cache. Called by Seal with the store still unsealed.
func (s *Store) finishSpill() error {
	sp := s.spill
	if err := s.spillActive(); err != nil {
		return err
	}
	sp.stopWriters()
	if err := sp.firstErr(); err != nil {
		return err
	}
	// Assemble the manifest in segment order from the pool's results.
	sp.segs = make([]segmentInfo, 0, sp.seq)
	for i := 0; i < sp.seq; i++ {
		res, ok := sp.results[i]
		if !ok || res.err != nil {
			return fmt.Errorf("segment %d missing from writer results", i+1)
		}
		sp.segs = append(sp.segs, res.info)
	}
	sp.results = nil
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
	sp.cache = newSegCache(sp.cfg.Dir, sp.segs, sp.cfg.ScanWorkers)
	sp.finished = true
	return nil
}

// stopWriters closes the writer pool's queue, if the pool was started, and
// waits for every writer to exit. Seal calls it to drain the pool, and a
// resegment that fails calls it so no writer is left blocked.
func (sp *spillState) stopWriters() {
	if sp.work == nil {
		return
	}
	close(sp.work)
	sp.wg.Wait()
	sp.work = nil
	sp.free = nil
}

// scanSegments delivers whole decoded segments (with their index) in log
// order — the hook core uses to fold per-segment shards without a second
// decode pass. Up to ScanWorkers segments decode ahead in the background
// while the current one is folded; delivery stays strictly in segment
// order, so float-summation order — and with it report byte-identity — is
// untouched by the parallelism.
func (sp *spillState) scanSegments(fn func(seg int, events []event.Event)) {
	for i := range sp.segs {
		for j := i + 1; j <= i+sp.cfg.ScanWorkers && j < len(sp.segs); j++ {
			sp.cache.prefetch(j)
		}
		fn(i, sp.cache.get(i))
	}
}

// segCache is a small LRU of decoded segments, safe for the sealed phase's
// concurrent readers. Concurrent requests for the same segment share one
// decode (the loser waits on the winner's ready channel), and prefetch is
// just a load nobody waits for.
type segCache struct {
	dir  string
	segs []segmentInfo
	max  int

	mu      sync.Mutex
	entries map[int]*cacheEntry
	// order holds fully-loaded entry indices, LRU first. In-flight loads
	// are not evictable, so membership here implies ready is closed.
	order []int

	// Diagnostics counters (SegmentCacheStats).
	hits      atomic.Int64
	misses    atomic.Int64
	dedup     atomic.Int64
	evictions atomic.Int64
}

// SegmentCacheStats reports decoded-segment cache traffic since Seal (or
// directory open): cache hits, decode misses, prefetches deduplicated
// against an in-flight or resident entry, and evictions. analyze prints
// them so scan-pattern regressions (thrash, dead prefetch) are visible.
type SegmentCacheStats struct {
	Hits            int64
	Misses          int64
	PrefetchDeduped int64
	Evictions       int64
}

// SegmentCacheStats returns cache counters for a segmented store; zero
// for stores without one.
func (s *Store) SegmentCacheStats() SegmentCacheStats {
	sp := s.spill
	if sp == nil || sp.cache == nil {
		return SegmentCacheStats{}
	}
	c := sp.cache
	return SegmentCacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		PrefetchDeduped: c.dedup.Load(),
		Evictions:       c.evictions.Load(),
	}
}

type cacheEntry struct {
	ready  chan struct{}
	events []event.Event
	err    error
}

// newSegCache sizes the cache for ordered scans with ahead segments of
// decode-ahead: the segment being folded plus the window, so a scan never
// evicts its own prefetches.
func newSegCache(dir string, segs []segmentInfo, ahead int) *segCache {
	return &segCache{dir: dir, segs: segs, max: ahead + 1, entries: make(map[int]*cacheEntry)}
}

// get returns segment i's decoded records, loading and caching on miss.
// Segment files are written by this process or verified at directory open,
// so a read failure here is real I/O corruption and panics like any other
// violated store invariant.
func (c *segCache) get(i int) []event.Event {
	evs, err := c.load(i)
	if err != nil {
		panic(fmt.Sprintf("logstore: segment %s: %v", c.segs[i].File, err))
	}
	return evs
}

func (c *segCache) load(i int) ([]event.Event, error) {
	c.mu.Lock()
	if e, ok := c.entries[i]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.ready
		c.touch(i)
		return e.events, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[i] = e
	c.mu.Unlock()
	c.misses.Add(1)

	e.events, e.err = readSegment(c.dir, c.segs[i])
	close(e.ready)

	c.mu.Lock()
	c.order = append(c.order, i)
	for len(c.order) > c.max {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
		c.evictions.Add(1)
	}
	c.mu.Unlock()
	return e.events, e.err
}

// touch marks i most-recently-used.
func (c *segCache) touch(i int) {
	c.mu.Lock()
	for j, v := range c.order {
		if v == i {
			c.order = append(append(c.order[:j:j], c.order[j+1:]...), i)
			break
		}
	}
	c.mu.Unlock()
}

// prefetch starts loading segment i in the background unless it is already
// present.
func (c *segCache) prefetch(i int) {
	c.mu.Lock()
	_, ok := c.entries[i]
	c.mu.Unlock()
	if ok {
		c.dedup.Add(1)
		return
	}
	go c.load(i)
}

// readSegment strictly decodes one segment file and checks it against its
// manifest entry. A globbed entry (no manifest) carries only its file
// name, so there is nothing to check it against.
func readSegment(dir string, want segmentInfo) ([]event.Event, error) {
	f, err := os.Open(filepath.Join(dir, want.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	plain, closeFn, err := sniffGzip(f)
	if err != nil {
		return nil, err
	}
	defer closeFn()
	// Presized from the manifest entry, but to no more than one record per
	// byte of the file, so a forged count cannot force a large allocation
	// (nor a negative one a panic). Inline decode: segment loads already
	// run on worker pools, so sharding inside one segment would just
	// oversubscribe.
	events := make([]event.Event, 0, max(0, min(want.Records, int(fi.Size()))))
	events, err = decodeAll(plain, ReadOptions{Shards: 1}, &ReadStats{}, events)
	if err != nil {
		return nil, err
	}
	if want.Records == 0 && want.First.IsZero() {
		return events, nil
	}
	first, last := bounds(events)
	switch {
	case len(events) != want.Records:
		return events, fmt.Errorf("holds %d records, manifest declares %d", len(events), want.Records)
	case !first.Equal(want.First) || !last.Equal(want.Last):
		return events, fmt.Errorf("record time bounds [%s, %s] disagree with manifest [%s, %s]",
			first, last, want.First, want.Last)
	}
	return events, nil
}

// bounds returns the first and last record times, zero for no records.
func bounds(events []event.Event) (first, last time.Time) {
	if len(events) > 0 {
		first, last = events[0].When(), events[len(events)-1].When()
	}
	return first, last
}

// OpenSegmentDir opens a spilled segment directory as a sealed virtual
// store. Every segment is decoded once up front — re-verifying per-segment
// time order, record counts against headers and manifest, and
// cross-segment monotonicity — then discarded; reads stream segments back
// through a bounded cache, so peak RAM stays O(segment), not O(world).
//
// Strict mode fails on the first problem. With SkipCorrupt, a bad segment
// (any malformed line, count mismatch, or disorder against its
// predecessor) is dropped whole and reported in ReadStats.SegmentsDropped
// — never silently.
func OpenSegmentDir(dir string, opts ReadOptions) (*Store, *ReadStats, error) {
	st := &ReadStats{}
	man, segs, err := loadSegmentList(dir, st, opts)
	if err != nil {
		return nil, nil, err
	}
	if len(segs) == 0 && st.SegmentsDropped == 0 {
		return nil, nil, fmt.Errorf("logstore: %s: no segment files (not a segment directory?)", dir)
	}

	// Verification pass: decode every segment once, in parallel workers,
	// rebuilding its manifest entry from the records themselves.
	type checked struct {
		info segmentInfo
		err  error
	}
	results := make([]checked, len(segs))
	workers := opts.Shards
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(segs) {
		workers = len(segs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				events, err := readSegment(dir, segs[i])
				results[i] = checked{info: summarize(segs[i].File, events), err: err}
			}
		}()
	}
	for i := range segs {
		work <- i
	}
	close(work)
	wg.Wait()

	// Keep verified segments that also respect cross-segment monotonicity
	// (segment i must start no earlier than segment i-1 ended).
	var kept []segmentInfo
	var last time.Time
	for i, res := range results {
		if res.err == nil && len(kept) > 0 && res.info.Records > 0 && res.info.First.Before(last) {
			res.err = fmt.Errorf("starts at %s, before predecessor's last record at %s",
				res.info.First, last)
		}
		if res.err != nil {
			if !opts.SkipCorrupt {
				return nil, nil, fmt.Errorf("logstore: segment %s: %w", segs[i].File, res.err)
			}
			st.SegmentsDropped++
			st.Dropped += segs[i].Records
			if segs[i].Records == 0 {
				st.Dropped += res.info.Records
			}
			continue
		}
		if res.info.Records == 0 {
			continue // empty segment: legal, nothing to serve
		}
		kept = append(kept, res.info)
		last = res.info.Last
		st.Records += res.info.Records
	}

	st.Segments = len(kept)
	if man != nil {
		st.Meta = Meta{Start: man.Start, End: man.End, Seed: man.Seed}
	}
	if len(kept) > 0 {
		st.First = kept[0].First
		st.Last = kept[len(kept)-1].Last
	}

	scanW := opts.ScanWorkers
	if scanW <= 0 {
		scanW = 1
	}
	s := &Store{spill: &spillState{
		cfg:      SpillConfig{Dir: dir, ScanWorkers: scanW, Meta: st.Meta},
		segs:     kept,
		spilled:  st.Records,
		finished: true,
		cache:    newSegCache(dir, kept, scanW),
	}}
	s.sealed.Store(true)
	return s, st, nil
}

// loadSegmentList reads the manifest, falling back to globbing segment
// files (manifest-less directories are served with zero Meta). A manifest
// that is malformed or fails check is an error in strict mode and, under
// SkipCorrupt, is ignored the same way, with the reason in
// ReadStats.ManifestIgnored. The returned entries carry manifest
// expectations where known; Records is 0 for globbed files until
// verification fills it in.
func loadSegmentList(dir string, st *ReadStats, opts ReadOptions) (*manifest, []segmentInfo, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err == nil {
		var m manifest
		var bad error
		if jerr := json.Unmarshal(data, &m); jerr != nil || m.Format != SegmentFormatName {
			bad = errors.New("malformed manifest")
		} else if m.Version != SegmentFormatVersion {
			return nil, nil, fmt.Errorf("logstore: %s: unsupported segment layout version %d (reader speaks %d)",
				dir, m.Version, SegmentFormatVersion)
		} else if bad = m.check(); bad == nil {
			return &m, m.Segments, nil
		}
		if !opts.SkipCorrupt {
			return nil, nil, fmt.Errorf("logstore: %s/%s: %w", dir, ManifestName, bad)
		}
		st.ManifestIgnored = bad.Error()
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.ndjson*"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(matches)
	segs := make([]segmentInfo, 0, len(matches))
	for _, m := range matches {
		segs = append(segs, segmentInfo{File: filepath.Base(m)})
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
	err = decodeNDJSON(plain, opts, st, func(e event.Event) error {
		if err := arm(); err != nil {
			return err
		}
		s.Append(e)
		return nil
	})
	if err == nil {
		err = arm()
	}
	if err != nil {
		if s.spill != nil {
			s.spill.stopWriters()
		}
		return nil, nil, err
	}
	s.Seal()
	st.Segments = s.SegmentCount()
	return s, st, nil
}
