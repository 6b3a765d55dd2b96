package logstore

import (
	"bytes"
	"io"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

// benchStore interleaves 28 kinds' worth of traffic shape: mostly logins
// and page hits, with a thin stream of the rarer analysis targets. The
// select benchmark picks a rare kind (MoneyWired, ~1% of records), so it
// times the scan that every select pays, not the copy of its matches.
func benchStore(n int) *Store {
	s := New()
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		switch {
		case i%100 == 0:
			s.Append(event.MoneyWired{Base: event.Base{Time: at}, VictimAccount: 1, Amount: 50})
		case i%5 == 0:
			s.Append(event.PageHit{Base: event.Base{Time: at}, Page: event.PageID(i % 40), Method: "GET"})
		default:
			s.Append(login(at, identity.AccountID(i%97+1), event.ActorOwner))
		}
	}
	return s
}

func BenchmarkSelectScan(b *testing.B) {
	s := benchStore(200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Select[event.MoneyWired](s); len(got) != 2000 {
			b.Fatalf("selected %d", len(got))
		}
	}
}

// ndjsonDump renders a ≥200k-record dump once; the decode benchmarks
// re-read it per iteration. JSON unmarshal is the ingest CPU bottleneck,
// so sharded decode should beat the sequential reader at GOMAXPROCS>1.
var ndjsonDump []byte

func ndjsonFixture(b *testing.B) []byte {
	b.Helper()
	if ndjsonDump == nil {
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, benchStore(200000)); err != nil {
			b.Fatal(err)
		}
		ndjsonDump = buf.Bytes()
	}
	return ndjsonDump
}

func benchReadNDJSON(b *testing.B, shards int) {
	dump := ndjsonFixture(b)
	b.SetBytes(int64(len(dump)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, err := ReadNDJSONWith(bytes.NewReader(dump), ReadOptions{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != 200000 || !s.Sealed() {
			b.Fatalf("decoded %d records, sealed=%v", s.Len(), s.Sealed())
		}
	}
}

func BenchmarkReadNDJSONSequential(b *testing.B) { benchReadNDJSON(b, 1) }
func BenchmarkReadNDJSONParallel(b *testing.B)   { benchReadNDJSON(b, 0) }

// BenchmarkWriteNDJSON times the encoder alone: the store the read
// benchmarks decode, written to io.Discard.
func BenchmarkWriteNDJSON(b *testing.B) {
	s := benchStore(200000)
	b.SetBytes(int64(len(ndjsonFixture(b))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteNDJSON(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKindCountsScan(b *testing.B) {
	s := benchStore(200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.KindCounts(); len(got) != 3 {
			b.Fatalf("kinds = %d", len(got))
		}
	}
}

// BenchmarkAppend measures the simulation-side write path: one op is one
// Append into a growing store (a fresh store every 8k records, so slice
// growth is part of the amortized cost, as it is for a live world).
func BenchmarkAppend(b *testing.B) {
	const cycle = 8192
	evs := make([]event.Event, cycle)
	for i := range evs {
		evs[i] = login(t0.Add(time.Duration(i)*time.Millisecond), identity.AccountID(i%97+1), event.ActorOwner)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var s *Store
	for i := 0; i < b.N; i++ {
		j := i % cycle
		if j == 0 {
			s = New()
		}
		s.Append(evs[j])
	}
	_ = s
}

// BenchmarkAppendReserved is the steady-state write path of a world that
// pre-sized its store from the config's scale hints: no growth copies, no
// per-record allocation at all.
func BenchmarkAppendReserved(b *testing.B) {
	const cycle = 8192
	evs := make([]event.Event, cycle)
	for i := range evs {
		evs[i] = login(t0.Add(time.Duration(i)*time.Millisecond), identity.AccountID(i%97+1), event.ActorOwner)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var s *Store
	for i := 0; i < b.N; i++ {
		j := i % cycle
		if j == 0 {
			s = New()
			s.Reserve(cycle)
		}
		s.Append(evs[j])
	}
	_ = s
}
