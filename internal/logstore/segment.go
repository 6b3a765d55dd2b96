package logstore

// Segmented spill-to-disk operation. The paper's datasets were aggregated
// from production logs "via map-reduce computation" — logs far too large
// for any single machine's RAM. This file gives the store the same shape:
// during the single-writer build phase, time-contiguous segments seal at a
// record (or approximate byte) threshold and spill to versioned NDJSON(.gz)
// segment files, so the store holds only the active segment plus a small
// decoded-segment cache. After Seal, every read path (Scan, Select,
// Between, KindCounts, ScanSegments) streams segments back through the cache
// in log order — analyses run over million-user worlds in RAM bounded by
// the segment size, not the world size.
//
// Segment files reuse the version-2 dump format verbatim (one header line,
// then envelope lines), with the header's start/end carrying the segment's
// own first/last record timestamps. A manifest.json ties the directory
// together: the world's observation window and seed, plus per-segment
// record counts, time bounds, and kind tallies (which let kind-filtered
// reads skip segments wholesale).

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
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
	// DefaultCacheSegments is the decoded-segment cache size when unset:
	// the segment being read plus one being prefetched.
	DefaultCacheSegments = 2
)

// SpillConfig configures segmented spill-to-disk operation (EnableSpill).
type SpillConfig struct {
	// Dir receives the segment files and manifest; created if absent.
	Dir string
	// SegmentRecords seals the active segment at this many records
	// (<= 0 means DefaultSegmentRecords).
	SegmentRecords int
	// SegmentBytes, when > 0, additionally seals when the active
	// segment's estimated encoded size reaches this many bytes. The
	// estimate is the measured bytes-per-record of previous segments
	// (pre-compression), so the first segment is governed by
	// SegmentRecords alone.
	SegmentBytes int64
	// CacheSegments bounds decoded sealed segments kept in RAM for reads
	// after Seal (<= 0 means DefaultCacheSegments). Ordered scans may
	// hold up to ScanWorkers+1 segments regardless, so the decode-ahead
	// window never thrashes its own prefetches.
	CacheSegments int
	// Writers sizes the background encode/write pool that seals segments
	// off the append path (<= 0 means 1). The append goroutine only
	// hands the filled segment over and keeps simulating; writers absorb
	// the JSON encode, compression, and disk I/O.
	Writers int
	// Compress gzips segment files.
	Compress bool
	// GzipLevel is the compression level when Compress is set (0 means
	// gzip.BestSpeed — the spill path favors throughput; archival dumps
	// via WriteNDJSONFile keep gzip.DefaultCompression).
	GzipLevel int
	// ScanWorkers sets how many segments an ordered scan decodes ahead
	// of the one being folded (<= 0 means 1, the classic
	// prefetch-next). Delivery order is unaffected — builders always
	// see segments in log order — only the decode overlaps.
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
// tracks segments handed to the writer pool and the byte-size estimate;
// after Seal the cache serves every read.
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
	// buildKinds is the running kind tally of everything handed to the
	// pipeline, so build-phase KindCounts does not depend on which
	// segments the writers have finished.
	buildKinds map[event.Kind]int
	// encBytes/encRecords accumulate measured pre-compression encode
	// sizes, driving the SegmentBytes estimate. Atomics: writers add,
	// the append goroutine reads in shouldSeal. The estimate lags the
	// pipeline by however many segments are in flight, which only makes
	// byte-based sealing more conservative during ramp-up.
	encBytes   atomic.Int64
	encRecords atomic.Int64

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
	if cfg.Dir == "" {
		return fmt.Errorf("logstore: EnableSpill requires a directory")
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = DefaultSegmentRecords
	}
	if cfg.CacheSegments <= 0 {
		cfg.CacheSegments = DefaultCacheSegments
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 1
	}
	if cfg.ScanWorkers <= 0 {
		cfg.ScanWorkers = 1
	}
	if cfg.GzipLevel == 0 {
		cfg.GzipLevel = gzip.BestSpeed
	}
	if cfg.GzipLevel < gzip.HuffmanOnly || cfg.GzipLevel > gzip.BestCompression {
		return fmt.Errorf("logstore: invalid gzip level %d", cfg.GzipLevel)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("logstore: spill dir: %w", err)
	}
	s.spill = &spillState{cfg: cfg, buildKinds: make(map[event.Kind]int, 32)}
	return nil
}

// Spilling reports whether the store is in segmented spill-to-disk mode
// (either phase).
func (s *Store) Spilling() bool { return s.spill != nil }

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

// shouldSeal reports whether the active segment has reached a spill
// threshold.
func (sp *spillState) shouldSeal(active int) bool {
	if active >= sp.cfg.SegmentRecords {
		return true
	}
	if sp.cfg.SegmentBytes > 0 {
		if recs := sp.encRecords.Load(); recs > 0 {
			avg := sp.encBytes.Load() / recs
			if int64(active)*avg >= sp.cfg.SegmentBytes {
				return true
			}
		}
	}
	return false
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
		raw, err := writeSegmentFile(filepath.Join(sp.cfg.Dir, job.info.File), job.events, job.info, sp.cfg)
		if err != nil {
			err = fmt.Errorf("segment %s (index %d): %w", job.info.File, job.seq+1, err)
			sp.recordErr(job.seq, err)
		} else {
			sp.encBytes.Add(raw)
			sp.encRecords.Add(int64(job.info.Records))
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
		sp.buildKinds[e.EventKind()]++
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
// start/end being the segment's own record-time bounds. It returns the
// pre-compression encoded size (feeding the SegmentBytes estimate).
func writeSegmentFile(path string, events []event.Event, info segmentInfo, cfg SpillConfig) (rawBytes int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("logstore: close %s: %w", path, cerr)
		}
	}()
	var w io.Writer = f
	var zw *gzip.Writer
	if cfg.Compress {
		level := cfg.GzipLevel
		if level == 0 {
			// Direct callers (tests) that skip EnableSpill's defaulting
			// still get the spill-path default.
			level = gzip.BestSpeed
		}
		zw, err = gzip.NewWriterLevel(f, level)
		if err != nil {
			return 0, err
		}
		w = zw
	}
	cw := &countingWriter{w: bufio.NewWriterSize(w, 1<<20)}
	ew := newEnvelopeWriter(cw)
	if err := ew.enc.Encode(header{
		Format:  FormatName,
		Version: FormatVersion,
		Records: info.Records,
		Start:   info.First,
		End:     info.Last,
		Seed:    cfg.Meta.Seed,
	}); err != nil {
		return 0, err
	}
	for _, e := range events {
		if err := ew.writeEvent(e); err != nil {
			return 0, err
		}
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil {
		return 0, err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return 0, err
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// finishSpill flushes the final partial segment, drains the writer pool,
// surfaces the first write error, writes the manifest, and arms the
// segment cache. Called by Seal with the store still unsealed.
func (s *Store) finishSpill() error {
	sp := s.spill
	if err := s.spillActive(); err != nil {
		return err
	}
	if sp.work != nil {
		close(sp.work)
		sp.wg.Wait()
		sp.work = nil
		sp.free = nil
	}
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
	sp.cache = newSegCache(sp.cfg.Dir, sp.segs, effectiveCache(sp.cfg))
	sp.finished = true
	return nil
}

// effectiveCache sizes the decoded-segment cache: at least the configured
// bound, and at least the decode-ahead window plus the segment being
// folded — a scan must never evict its own prefetches.
func effectiveCache(cfg SpillConfig) int {
	n := cfg.CacheSegments
	if w := cfg.ScanWorkers + 1; w > n {
		n = w
	}
	return n
}

// scan streams every spilled segment through fn in log order. Up to
// ScanWorkers segments decode ahead in the background while the current
// one is folded; delivery stays strictly in segment order, so
// float-summation order — and with it report byte-identity — is
// untouched by the parallelism.
func (sp *spillState) scan(fn func(event.Event)) {
	sp.scanSegments(func(_ int, events []event.Event) {
		for _, e := range events {
			fn(e)
		}
	})
}

// scanSegments delivers whole decoded segments (with their index) in
// order — the hook core uses to fold per-segment shards without a second
// decode pass.
func (sp *spillState) scanSegments(fn func(seg int, events []event.Event)) {
	ahead := sp.cfg.ScanWorkers
	if ahead < 1 {
		ahead = 1
	}
	for i := range sp.segs {
		for j := i + 1; j <= i+ahead && j < len(sp.segs); j++ {
			sp.cache.prefetch(j)
		}
		fn(i, sp.cache.get(i))
	}
}

// scanKind is scan restricted to one record kind, skipping segments whose
// manifest shows none of it. The decode-ahead window walks the same
// skip-list: only segments that hold k are prefetched.
func (sp *spillState) scanKind(k event.Kind, fn func(event.Event)) {
	ahead := sp.cfg.ScanWorkers
	if ahead < 1 {
		ahead = 1
	}
	for i, seg := range sp.segs {
		if seg.Kinds[k] == 0 {
			continue
		}
		queued := 0
		for j := i + 1; j < len(sp.segs) && queued < ahead; j++ {
			if sp.segs[j].Kinds[k] > 0 {
				sp.cache.prefetch(j)
				queued++
			}
		}
		for _, e := range sp.cache.get(i) {
			if e.EventKind() == k {
				fn(e)
			}
		}
	}
}

// between materializes the [from, to) window across segments, skipping
// segments wholly outside it.
func (sp *spillState) between(from, to time.Time) []event.Event {
	var out []event.Event
	for i, seg := range sp.segs {
		if seg.Last.Before(from) || !seg.First.Before(to) {
			continue
		}
		evs := sp.cache.get(i)
		lo := sort.Search(len(evs), func(j int) bool { return !evs[j].When().Before(from) })
		hi := sort.Search(len(evs), func(j int) bool { return !evs[j].When().Before(to) })
		out = append(out, evs[lo:hi]...)
	}
	return out
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

func newSegCache(dir string, segs []segmentInfo, max int) *segCache {
	if max < 1 {
		max = 1
	}
	return &segCache{dir: dir, segs: segs, max: max, entries: make(map[int]*cacheEntry)}
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

	e.events, e.err = decodeSegmentFile(filepath.Join(c.dir, c.segs[i].File), c.segs[i])
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
// present or the cache is too small to hold a readahead slot.
func (c *segCache) prefetch(i int) {
	if c.max < 2 {
		return
	}
	c.mu.Lock()
	_, ok := c.entries[i]
	c.mu.Unlock()
	if ok {
		c.dedup.Add(1)
		return
	}
	go c.load(i)
}

// decodeSegmentFile strictly decodes one segment and cross-checks it
// against its manifest entry.
func decodeSegmentFile(path string, want segmentInfo) ([]event.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	plain, closeFn, err := sniffGzip(f)
	if err != nil {
		return nil, err
	}
	defer closeFn()
	// Inline decode: segment loads already run on the analysis worker
	// pool, so sharding inside one segment would just oversubscribe.
	events, _, err := decodeNDJSON(plain, ReadOptions{Shards: 1})
	if err != nil {
		return nil, err
	}
	if len(events) != want.Records {
		return nil, fmt.Errorf("holds %d records, manifest declares %d", len(events), want.Records)
	}
	return events, nil
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
				info, err := verifySegment(dir, segs[i])
				results[i] = checked{info: info, err: err}
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

	cacheN := opts.CacheSegments
	if cacheN <= 0 {
		cacheN = DefaultCacheSegments
	}
	scanW := opts.ScanWorkers
	if scanW <= 0 {
		scanW = 1
	}
	cfg := SpillConfig{Dir: dir, CacheSegments: cacheN, ScanWorkers: scanW, Meta: st.Meta}
	s := &Store{spill: &spillState{
		cfg:      cfg,
		segs:     kept,
		spilled:  st.Records,
		finished: true,
		cache:    newSegCache(dir, kept, effectiveCache(cfg)),
	}}
	s.sealed.Store(true)
	return s, st, nil
}

// loadSegmentList reads the manifest, falling back to globbing segment
// files (manifest-less directories are served with zero Meta). The
// returned entries carry manifest expectations where known; Records is 0
// for globbed files until verification fills it in.
func loadSegmentList(dir string, st *ReadStats, opts ReadOptions) (*manifest, []segmentInfo, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err == nil {
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr != nil || m.Format != SegmentFormatName {
			if !opts.SkipCorrupt {
				return nil, nil, fmt.Errorf("logstore: %s/%s: malformed manifest", dir, ManifestName)
			}
		} else if m.Version != SegmentFormatVersion {
			return nil, nil, fmt.Errorf("logstore: %s: unsupported segment layout version %d (reader speaks %d)",
				dir, m.Version, SegmentFormatVersion)
		} else {
			return &m, m.Segments, nil
		}
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

// verifySegment fully decodes one segment in strict mode and rebuilds its
// manifest entry from the records; any discrepancy with the manifest's
// expectations condemns the segment.
func verifySegment(dir string, want segmentInfo) (segmentInfo, error) {
	f, err := os.Open(filepath.Join(dir, want.File))
	if err != nil {
		return segmentInfo{}, err
	}
	defer f.Close()
	plain, closeFn, err := sniffGzip(f)
	if err != nil {
		return segmentInfo{}, err
	}
	defer closeFn()
	events, _, err := decodeNDJSON(plain, ReadOptions{Shards: 1})
	if err != nil {
		return segmentInfo{}, err
	}
	info := segmentInfo{File: want.File, Records: len(events), Kinds: make(map[event.Kind]int, 32)}
	if len(events) > 0 {
		info.First = events[0].When()
		info.Last = events[len(events)-1].When()
	}
	for _, e := range events {
		info.Kinds[e.EventKind()]++
	}
	// A globbed entry (no manifest) has Records == 0 and File only; a
	// manifest entry must agree with the file's actual contents.
	if want.Records != 0 || !want.First.IsZero() {
		switch {
		case info.Records != want.Records:
			return info, fmt.Errorf("holds %d records, manifest declares %d", info.Records, want.Records)
		case !info.First.Equal(want.First) || !info.Last.Equal(want.Last):
			return info, fmt.Errorf("record time bounds [%s, %s] disagree with manifest [%s, %s]",
				info.First, info.Last, want.First, want.Last)
		}
	}
	return info, nil
}

// ResegmentNDJSONFile streams a monolithic dump into a fresh segment
// directory, returning the sealed segmented store. Unlike ReadNDJSONFile
// the decode is sequential and line-at-a-time, so peak RAM is one segment
// — this is how cmd/analyze ingests a dump bigger than memory.
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

	sc := bufio.NewScanner(plain)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	st := &ReadStats{}
	s := New()
	spillArmed := false
	arm := func() error {
		if spillArmed {
			return nil
		}
		spillArmed = true
		return s.EnableSpill(cfg)
	}

	line := 0
	headerRecords := -1
	sawHeader := false
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if !sawHeader {
			sawHeader = true
			var h header
			if json.Unmarshal(raw, &h) == nil && h.Format == FormatName {
				if h.Version != FormatVersion {
					return nil, nil, fmt.Errorf("logstore: line %d: unsupported dump version %d (reader speaks %d)",
						line, h.Version, FormatVersion)
				}
				headerRecords = h.Records
				st.Meta = Meta{Start: h.Start, End: h.End, Seed: h.Seed}
				// The segment directory inherits the dump's provenance
				// unless the caller pinned its own.
				if cfg.Meta == (Meta{}) {
					cfg.Meta = st.Meta
				}
				continue
			}
			st.Legacy = true
		}
		if err := arm(); err != nil {
			return nil, nil, err
		}
		e, err := decodeLine(raw)
		if err != nil {
			if !opts.SkipCorrupt {
				return nil, nil, fmt.Errorf("logstore: line %d: %w", line, err)
			}
			st.Dropped++
			continue
		}
		if st.Records > 0 && e.When().Before(st.Last) {
			if !opts.SkipCorrupt {
				return nil, nil, fmt.Errorf("logstore: line %d: out-of-order record: %s at %s after %s",
					line, e.EventKind(), e.When(), st.Last)
			}
			st.OutOfOrder++
			continue
		}
		s.Append(e)
		if st.Records == 0 {
			st.First = e.When()
		}
		st.Last = e.When()
		st.Records++
	}
	if err := sc.Err(); err != nil {
		if !opts.SkipCorrupt {
			return nil, nil, fmt.Errorf("logstore: line %d: %w", line+1, err)
		}
		st.Truncated = true
	}
	if headerRecords >= 0 {
		accounted := st.Records + st.Dropped + st.OutOfOrder
		if accounted < headerRecords {
			if !opts.SkipCorrupt {
				return nil, nil, fmt.Errorf("logstore: dump truncated: header declares %d records, input held %d",
					headerRecords, accounted)
			}
			st.Missing = headerRecords - accounted
		} else if accounted > headerRecords && !opts.SkipCorrupt {
			return nil, nil, fmt.Errorf("logstore: header declares %d records, input held %d (concatenated dumps?)",
				headerRecords, accounted)
		}
	}
	if err := arm(); err != nil {
		return nil, nil, err
	}
	s.Seal()
	st.Segments = s.SegmentCount()
	return s, st, nil
}
