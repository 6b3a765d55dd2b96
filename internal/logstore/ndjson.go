package logstore

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"manualhijack/internal/event"
)

// The NDJSON dump format is the contract between `hijacksim -events` and
// `cmd/analyze`: one record per line, preceded by a versioned header line.
//
// Version 2 (current):
//
//	{"format":"manualhijack-ndjson","version":2,"records":N,"start":...,"end":...,"seed":S}
//	{"kind":"auth.login","data":{...}}
//	...
//
// Version 1 is the headerless legacy format; readers still accept it.
// Files may be gzip-compressed: writers compress when the path ends in
// ".gz", readers detect the gzip magic bytes regardless of name.
const (
	// FormatName tags the header line of a versioned dump.
	FormatName = "manualhijack-ndjson"
	// FormatVersion is the dump version this package writes.
	FormatVersion = 2
)

// envelope is the NDJSON wire format: one object per line, tagged with
// the record kind so Decode can pick the concrete type.
type envelope struct {
	Kind event.Kind      `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Meta is the dump-level metadata carried by the header line: the
// observation window of the world that produced the log — which offline
// analyses need, because the first record's timestamp is not the window
// start — and the world seed for provenance. A zero Meta is legal; readers
// then fall back to the decoded records' time range.
type Meta struct {
	Start time.Time
	End   time.Time
	Seed  int64
}

// header is the first line of a version-2 dump.
type header struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	Records int       `json:"records"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Seed    int64     `json:"seed"`
}

// WriteNDJSON streams the store as newline-delimited JSON, preserving log
// order. Equivalent to WriteNDJSONMeta with a zero Meta.
func WriteNDJSON(w io.Writer, s *Store) error {
	return WriteNDJSONMeta(w, s, Meta{})
}

// WriteNDJSONMeta streams the store as newline-delimited JSON with a
// version-2 header carrying m. The format is what cmd/hijacksim dumps and
// cmd/analyze reads.
func WriteNDJSONMeta(w io.Writer, s *Store, m Meta) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := json.NewEncoder(bw).Encode(header{
		Format:  FormatName,
		Version: FormatVersion,
		Records: s.Len(),
		Start:   m.Start,
		End:     m.End,
		Seed:    m.Seed,
	}); err != nil {
		return err
	}
	ew := &envelopeWriter{w: bw}
	var err error
	s.Scan(func(e event.Event) {
		if err != nil {
			return
		}
		err = ew.writeEvent(e)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// envelopeWriter writes record lines in the dump wire format through
// event.AppendLine, which writes exactly the bytes the encoding/json
// envelope would (TestFastCodecMatchesEncodingJSON) and refuses exactly
// the records encoding/json cannot marshal.
type envelopeWriter struct {
	w       io.Writer
	scratch []byte
}

func (ew *envelopeWriter) writeEvent(e event.Event) error {
	out, ok := event.AppendLine(ew.scratch[:0], e)
	if !ok {
		return fmt.Errorf("logstore: cannot encode %s record %+v: an unregistered type, or a NaN, infinite or out-of-range value",
			e.EventKind(), e)
	}
	ew.scratch = out[:0]
	_, err := ew.w.Write(out)
	return err
}

// WriteNDJSONFile dumps s to path, gzip-compressing when the name ends in
// ".gz". The file's Close error is checked and returned — a full disk or
// write-behind failure must not report a truncated dump as success.
func WriteNDJSONFile(path string, s *Store, m Meta) error {
	return writeNDJSONFile(path, s, m, gzip.DefaultCompression)
}

// writeNDJSONFile is WriteNDJSONFile at a given gzip level. A dump keeps
// gzip.DefaultCompression; a spilled segment, written the same way from
// its records, favours throughput with gzip.BestSpeed.
func writeNDJSONFile(path string, s *Store, m Meta, level int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("logstore: close %s: %w", path, cerr)
		}
	}()
	if !strings.HasSuffix(path, ".gz") {
		return WriteNDJSONMeta(f, s, m)
	}
	zw, _ := gzip.NewWriterLevel(f, level) // errs only on an invalid level
	if err := WriteNDJSONMeta(zw, s, m); err != nil {
		return err
	}
	return zw.Close()
}

// ReadOptions controls ReadNDJSONWith.
type ReadOptions struct {
	// SkipCorrupt tolerates malformed lines, unknown kinds, truncated
	// trailing records (crash-durable dumps), and records out of time order:
	// offenders are dropped and counted in ReadStats — never silently.
	// The default strict mode fails on the first bad line with its number.
	// When opening a segment directory, corruption is handled at segment
	// granularity: a segment with any bad line is dropped whole (counted
	// in SegmentsDropped), because a partial segment would silently shift
	// every time-windowed aggregate behind it.
	SkipCorrupt bool
	// Shards sets the parallel JSON decode: 0 means GOMAXPROCS, 1 decodes
	// inline on the reading goroutine (the sequential baseline), and more
	// decode 2048-line batches as jobs on the ordered window, at most
	// 2×Shards batches in flight. For a segment directory it is instead
	// how many segments opening it verifies at once, each decoded inline
	// on a job of its own.
	Shards int
	// ScanWorkers sets the returned store's ordered-scan decode-ahead
	// depth when the input is a segment directory (0 means 1): a scan
	// decodes that many segments ahead of the one being read. Ignored for
	// monolithic dumps.
	ScanWorkers int
}

// ErrCorrupt marks a strict load's error that SkipCorrupt would have got
// past: a malformed or unknown-kind line, a record out of time order, an
// input cut mid-stream, a record count that disagrees with the dump
// header, and in a segment directory a bad segment or a missing or bad
// manifest. Match it with errors.Is; the mark leaves the error's text as
// it is. A failed spill write, a missing or unreadable input and an
// unsupported format version are not marked: SkipCorrupt does not get
// past them.
var ErrCorrupt = errors.New("logstore: corrupt input")

// corruptError is an error marked ErrCorrupt.
type corruptError struct{ error }

func (e corruptError) Unwrap() []error { return []error{e.error, ErrCorrupt} }

func corrupt(err error) error { return corruptError{err} }

// ReadStats reports what a load actually ingested.
type ReadStats struct {
	Records    int  // decoded records in the returned store
	Dropped    int  // malformed or unknown-kind lines dropped (SkipCorrupt); for segment directories this includes every record of a dropped segment
	OutOfOrder int  // records dropped for violating time order (SkipCorrupt)
	Missing    int  // header-declared records absent from the input (truncated dump)
	Truncated  bool // the input itself ended mid-stream (e.g. a cut gzip)
	Legacy     bool // headerless version-1 input
	Meta       Meta // header metadata (zero when Legacy)
	// First and Last bound the decoded records' timestamps; offline
	// analysis falls back to them when Meta carries no window.
	First, Last time.Time
	// Segments and SegmentsDropped describe a segment-directory load:
	// segments served by the returned store, and whole segments dropped
	// for corruption or cross-segment disorder (SkipCorrupt mode only —
	// strict mode fails instead). Both zero for monolithic dumps.
	Segments        int
	SegmentsDropped int
	// ManifestIgnored says why a segment directory's manifest.json was
	// distrusted and the directory listed instead (SkipCorrupt mode only).
	// Meta is then zero, so the observation window comes from the records.
	ManifestIgnored string
}

// ReadNDJSON reconstructs a store from WriteNDJSON output in strict mode.
// The returned store is sealed: a dumped log is complete by construction.
func ReadNDJSON(r io.Reader) (*Store, error) {
	s, _, err := ReadNDJSONWith(r, ReadOptions{})
	return s, err
}

// ReadNDJSONWith reconstructs a sealed store from NDJSON, decoding lines
// in parallel shards and verifying time order instead of trusting it.
// Gzip input is detected by magic bytes and decompressed transparently.
func ReadNDJSONWith(r io.Reader, opts ReadOptions) (*Store, *ReadStats, error) {
	plain, closeFn, err := sniffGzip(r)
	if err != nil {
		return nil, nil, err
	}
	defer closeFn()
	st := &ReadStats{}
	s := &Store{}
	err = decodeNDJSON(plain, opts, st, false, func(e event.Event) error {
		s.events = append(s.events, e)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	s.Seal()
	return s, st, nil
}

// ReadNDJSONFile loads a dump from disk (plain or gzip-compressed). When
// path is a directory it is opened as a spilled segment directory instead
// (see OpenSegmentDir) — the offline pipeline treats both layouts as one
// virtual store.
func ReadNDJSONFile(path string, opts ReadOptions) (*Store, *ReadStats, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return OpenSegmentDir(path, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadNDJSONWith(f, opts)
}

// sniffGzip peeks at r and transparently unwraps a gzip stream. The
// returned close function releases the decompressor (a no-op for plain
// input); the underlying reader is never closed.
func sniffGzip(r io.Reader) (io.Reader, func() error, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, fmt.Errorf("logstore: gzip: %w", err)
		}
		return zr, zr.Close, nil
	}
	return br, func() error { return nil }, nil
}

// batchLines is the unit of decode work. JSON unmarshal dominates ingest
// CPU, so with several shards each batch decodes as a job on the window
// while the reader goroutine keeps scanning; batches are delivered in
// input order.
const batchLines = 2048

// lineBatch is a contiguous run of raw lines plus the decode results its
// job fills in. The lines are packed end to end in buf (line i ends at
// ends[i]), and decodeNDJSON puts a delivered batch on its free list and
// refills it, so a read allocates its in-flight window of batches rather
// than a copy of every line. errs[i] is non-nil where line i failed to
// decode.
type lineBatch struct {
	nums   []int // 1-based input line numbers
	buf    []byte
	ends   []int
	events []event.Event
	errs   []error
	// dec shares repeated strings among the records the batch decodes,
	// over every refill, so a read keeps one copy of each per batch in
	// flight rather than one per record.
	dec event.Decoder
	// skims back the stand-ins of a check-mode decode.
	skims []skim
}

// skim stands in for a record in a check-mode decode: its kind and time,
// which is all verification keeps. It lives in its batch, so a sink must
// not keep it.
type skim struct {
	kind event.Kind
	at   time.Time
}

func (k *skim) When() time.Time       { return k.at }
func (k *skim) EventKind() event.Kind { return k.kind }

// batches recycles line batches from one read to the next. A segment
// directory is read a segment at a time, and a fresh batch would regrow
// its buffers from empty on every one of those reads.
var batches = sync.Pool{New: func() any { return new(lineBatch) }}

// add appends one line, copied into buf.
func (b *lineBatch) add(num int, line []byte) {
	b.nums = append(b.nums, num)
	b.buf = append(b.buf, line...)
	b.ends = append(b.ends, len(b.buf))
}

// decode decodes every line of the batch. Canonical lines take the
// hand-rolled path; any shape surprise — foreign writer, legacy dump,
// corruption — falls back to encoding/json, which owns the error
// semantics. In check mode a line the hand-rolled path vouches for
// becomes a skim, not a record (event.CheckLineFast accepts exactly the
// lines event.DecodeLineFast does), and every other line takes the same
// fallback, so both modes accept the same lines with the same errors.
func (b *lineBatch) decode(check bool) {
	n := len(b.ends)
	b.events = slices.Grow(b.events[:0], n)[:n]
	b.errs = slices.Grow(b.errs[:0], n)[:n]
	if check {
		b.skims = slices.Grow(b.skims[:0], n)[:n]
	}
	start := 0
	for i, end := range b.ends {
		line := b.buf[start:end]
		start = end
		var e event.Event
		var err error
		if check {
			if kind, at, ok := event.CheckLineFast(line); ok {
				b.skims[i] = skim{kind, at}
				e = &b.skims[i]
			} else {
				e, err = decodeJSON(line)
			}
		} else if fast, ok := b.dec.DecodeLine(line); ok {
			e = fast
		} else {
			e, err = decodeJSON(line)
		}
		if err != nil {
			err = fmt.Errorf("logstore: line %d: %w", b.nums[i], err)
		}
		b.events[i], b.errs[i] = e, err
	}
}

// reset empties the batch for reuse, dropping its references to the
// records it delivered.
func (b *lineBatch) reset() {
	clear(b.events)
	clear(b.errs)
	b.nums, b.buf, b.ends = b.nums[:0], b.buf[:0], b.ends[:0]
}

// decodeJSON reads a line with encoding/json.
func decodeJSON(data []byte) (event.Event, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	return event.Decode(env.Kind, env.Data)
}

// decodeNDJSON is the one NDJSON reader behind every load: dumps, segment
// files and resegmenting. It decodes batchLines-line batches as jobs on
// the window, at most two per shard in flight (one shard decodes inline),
// and hands every accepted record to sink in input order on the calling
// goroutine; a sink error stops the read. The header is parsed before the
// first record reaches sink, so st.Meta is already set then. Every rule on
// what a dump may hold lives here: the header version, the headerless
// legacy form, corrupt lines, time order, a cut input and the header's
// record count. In strict mode the error names the first bad line, whatever
// the shard count, and is marked ErrCorrupt when SkipCorrupt would have
// got past it.
//
// A check-mode read (check set) validates every line as fully as a decode
// but keeps only each record's kind and time: sink gets stand-ins that
// carry just those, valid until it returns. It accepts the same lines and
// fills st the same as a decode.
func decodeNDJSON(r io.Reader, opts ReadOptions, st *ReadStats, check bool, sink func(event.Event) error) error {
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}

	var last time.Time
	// deliver applies the corrupt-line and time-order rules to a decoded
	// batch and hands its accepted records to sink.
	deliver := func(b *lineBatch) error {
		for i, e := range b.events {
			if err := b.errs[i]; err != nil {
				if !opts.SkipCorrupt {
					return corrupt(err)
				}
				st.Dropped++
				continue
			}
			when := e.When()
			if st.Records > 0 && when.Before(last) {
				if !opts.SkipCorrupt {
					return corrupt(fmt.Errorf("logstore: line %d: out-of-order record: %s at %s after %s",
						b.nums[i], e.EventKind(), when, last))
				}
				st.OutOfOrder++
				continue
			}
			if st.Records == 0 {
				st.First = when
			}
			last = when
			st.Records++
			if err := sink(e); err != nil {
				return err
			}
		}
		return nil
	}

	// With one shard each batch decodes inline; otherwise it decodes as a
	// job on the window. finish delivers a decoded batch and puts it on
	// free for reuse; only this goroutine touches free.
	win := newWindow[*lineBatch](2 * shards)
	var free []*lineBatch
	defer func() {
		// Only delivered batches go back: a job still running when an
		// error ends the read keeps its batch.
		for _, b := range free {
			batches.Put(b)
		}
	}()
	finish := func(b *lineBatch) error {
		err := deliver(b)
		b.reset()
		free = append(free, b)
		return err
	}
	submit := func(b *lineBatch) error {
		if shards == 1 {
			b.decode(check)
			return finish(b)
		}
		if oldest, ok := win.add(func() *lineBatch { b.decode(check); return b }); ok {
			return finish(oldest)
		}
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	var cur *lineBatch
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
			// The first non-empty line is either a version-2 header or,
			// in a legacy dump, already a record.
			sawHeader = true
			var h header
			if json.Unmarshal(raw, &h) == nil && h.Format == FormatName {
				if h.Version != FormatVersion {
					return fmt.Errorf("logstore: line %d: unsupported dump version %d (reader speaks %d)",
						line, h.Version, FormatVersion)
				}
				headerRecords = h.Records
				st.Meta = Meta{Start: h.Start, End: h.End, Seed: h.Seed}
				continue
			}
			st.Legacy = true
		}
		if cur == nil {
			if n := len(free); n > 0 {
				cur, free = free[n-1], free[:n-1]
			} else {
				cur = batches.Get().(*lineBatch)
			}
		}
		cur.add(line, raw)
		if len(cur.ends) == batchLines {
			if err := submit(cur); err != nil {
				return err
			}
			cur = nil
		}
	}
	// Deliver everything read before looking at why the input ended: a
	// bad line ahead of a cut is the first bad line.
	if cur != nil {
		if err := submit(cur); err != nil {
			return err
		}
	}
	for b, ok := win.next(); ok; b, ok = win.next() {
		if err := finish(b); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if !opts.SkipCorrupt {
			return corrupt(fmt.Errorf("logstore: line %d: %w", line+1, err))
		}
		// A crash-durable dump can end mid-stream (a cut gzip member, an
		// over-long mangled line). Keep what decoded; flag the cut.
		st.Truncated = true
	}
	st.Last = last

	if headerRecords >= 0 {
		accounted := st.Records + st.Dropped + st.OutOfOrder
		if accounted < headerRecords {
			if !opts.SkipCorrupt {
				return corrupt(fmt.Errorf("logstore: dump truncated: header declares %d records, input held %d",
					headerRecords, accounted))
			}
			st.Missing = headerRecords - accounted
		} else if accounted > headerRecords && !opts.SkipCorrupt {
			return corrupt(fmt.Errorf("logstore: header declares %d records, input held %d (concatenated dumps?)",
				headerRecords, accounted))
		}
	}
	return nil
}
