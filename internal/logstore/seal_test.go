package logstore

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

// mixedStore builds a store with interleaved kinds: a login every record,
// a search every 3rd, a wire every 7th.
func mixedStore(n int) *Store {
	s := New()
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

// Sealing must not change what any read returns — only how it is served.
func TestSealPreservesReads(t *testing.T) {
	unsealed := mixedStore(500)
	sealed := mixedStore(500)
	sealed.Seal()
	if !sealed.Sealed() || unsealed.Sealed() {
		t.Fatal("sealed flags wrong")
	}

	if got, want := Select[event.Login](sealed), Select[event.Login](unsealed); !reflect.DeepEqual(got, want) {
		t.Fatalf("Select[Login] diverges: %d vs %d", len(got), len(want))
	}
	if got, want := Select[event.MoneyWired](sealed), Select[event.MoneyWired](unsealed); !reflect.DeepEqual(got, want) {
		t.Fatalf("Select[MoneyWired] diverges: %d vs %d", len(got), len(want))
	}
	pred := func(l event.Login) bool { return l.Account == 3 }
	if got, want := SelectWhere(sealed, pred), SelectWhere(unsealed, pred); !reflect.DeepEqual(got, want) {
		t.Fatalf("SelectWhere diverges: %d vs %d", len(got), len(want))
	}
	from, to := t0.Add(30*time.Second), t0.Add(90*time.Second)
	if got, want := sealed.Between(from, to), unsealed.Between(from, to); !reflect.DeepEqual(got, want) {
		t.Fatalf("Between diverges: %d vs %d", len(got), len(want))
	}
	if got, want := sealed.KindCounts(), unsealed.KindCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("KindCounts diverges: %v vs %v", got, want)
	}
	if got, want := sealed.SortedKinds(), unsealed.SortedKinds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKinds diverges: %v vs %v", got, want)
	}
}

func TestSealEmptySelectStaysNil(t *testing.T) {
	s := mixedStore(10)
	s.Seal()
	if got := Select[event.Remission](s); got != nil {
		t.Fatalf("empty partition select = %#v, want nil", got)
	}
	if got := s.Between(t0.Add(-2*time.Hour), t0.Add(-time.Hour)); got != nil {
		t.Fatalf("empty window = %#v, want nil", got)
	}
}

func TestSealBetweenBoundaries(t *testing.T) {
	s := New()
	for i := 0; i < 24; i++ {
		s.Append(login(t0.Add(time.Duration(i)*time.Hour), 1, event.ActorOwner))
	}
	s.Seal()
	got := s.Between(t0.Add(5*time.Hour), t0.Add(10*time.Hour))
	if len(got) != 5 {
		t.Fatalf("between = %d, want 5 (from inclusive, to exclusive)", len(got))
	}
	if got[0].When() != t0.Add(5*time.Hour) || got[4].When() != t0.Add(9*time.Hour) {
		t.Fatalf("window edges wrong: %v .. %v", got[0].When(), got[4].When())
	}
	if all := s.Between(t0.Add(-time.Hour), t0.Add(48*time.Hour)); len(all) != 24 {
		t.Fatalf("full window = %d, want 24", len(all))
	}
}

func TestAppendAfterSealPanics(t *testing.T) {
	s := mixedStore(5)
	s.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("append to sealed store did not panic")
		}
	}()
	s.Append(login(t0.Add(time.Hour), 1, event.ActorOwner))
}

func TestSealIdempotent(t *testing.T) {
	s := mixedStore(20)
	s.Seal()
	before := s.KindCounts()
	s.Seal()
	if !reflect.DeepEqual(before, s.KindCounts()) {
		t.Fatal("double seal changed counts")
	}
}

// Sanitize on a sealed store must rebuild the index: a stale partition
// serving erased records would undo the erasure guarantee.
func TestSanitizeRebuildsSealedIndex(t *testing.T) {
	s := New()
	s.Append(login(t0, 1, event.ActorOwner))
	s.Append(event.Search{Base: event.Base{Time: t0}, Account: 1, Query: "old"})
	s.Append(login(t0.Add(40*24*time.Hour), 2, event.ActorOwner))
	s.Seal()

	erased := s.Sanitize(t0.Add(41*24*time.Hour), Retention{
		Kinds: []event.Kind{event.KindLogin}, Window: 14 * 24 * time.Hour,
	})
	if erased != 1 {
		t.Fatalf("erased = %d, want 1", erased)
	}
	logins := Select[event.Login](s)
	if len(logins) != 1 || logins[0].Account != 2 {
		t.Fatalf("sealed index served stale partition: %+v", logins)
	}
	if kc := s.KindCounts(); kc[event.KindLogin] != 1 || kc[event.KindSearch] != 1 {
		t.Fatalf("kind counts stale after sanitize: %v", kc)
	}
}

// Concurrent index-backed reads on a sealed store must be race-free and
// mutually consistent (run with -race).
func TestSealedConcurrentReads(t *testing.T) {
	s := mixedStore(2000)
	s.Seal()

	wantLogins := Select[event.Login](s)
	from, to := t0.Add(100*time.Second), t0.Add(900*time.Second)
	wantWindow := s.Between(from, to)
	wantCounts := s.KindCounts()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				if got := Select[event.Login](s); len(got) != len(wantLogins) {
					errs <- "Select diverged"
				}
			case 1:
				if got := s.Between(from, to); !reflect.DeepEqual(got, wantWindow) {
					errs <- "Between diverged"
				}
			case 2:
				if got := s.KindCounts(); !reflect.DeepEqual(got, wantCounts) {
					errs <- "KindCounts diverged"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
