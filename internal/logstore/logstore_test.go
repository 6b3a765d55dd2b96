package logstore

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

var t0 = time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC)

func login(at time.Time, acct identity.AccountID, actor event.Actor) event.Login {
	return event.Login{
		Base:    event.Base{Time: at},
		Account: acct,
		Outcome: event.LoginSuccess,
		Actor:   actor,
	}
}

func TestAppendScanOrder(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Append(login(t0.Add(time.Duration(i)*time.Minute), identity.AccountID(i+1), event.ActorOwner))
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	var prev time.Time
	s.Scan(func(e event.Event) {
		if e.When().Before(prev) {
			t.Fatal("scan out of order")
		}
		prev = e.When()
	})
}

func TestOutOfOrderAppendPanics(t *testing.T) {
	s := New()
	s.Append(login(t0.Add(time.Hour), 1, event.ActorOwner))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append did not panic")
		}
	}()
	s.Append(login(t0, 2, event.ActorOwner))
}

func TestSelectByType(t *testing.T) {
	s := New()
	s.Append(login(t0, 1, event.ActorOwner))
	s.Append(event.Search{Base: event.Base{Time: t0.Add(time.Minute)}, Account: 1, Query: "wire transfer"})
	s.Append(login(t0.Add(2*time.Minute), 2, event.ActorHijacker))

	logins := Select[event.Login](s)
	if len(logins) != 2 {
		t.Fatalf("logins = %d, want 2", len(logins))
	}
	searches := Select[event.Search](s)
	if len(searches) != 1 || searches[0].Query != "wire transfer" {
		t.Fatalf("searches = %v", searches)
	}
}

func TestSelectWhere(t *testing.T) {
	s := New()
	for i := 0; i < 6; i++ {
		actor := event.ActorOwner
		if i%2 == 0 {
			actor = event.ActorHijacker
		}
		s.Append(login(t0.Add(time.Duration(i)*time.Second), identity.AccountID(i+1), actor))
	}
	bad := SelectWhere(s, func(l event.Login) bool { return l.Actor == event.ActorHijacker })
	if len(bad) != 3 {
		t.Fatalf("hijacker logins = %d, want 3", len(bad))
	}
}

func TestSanitizeByKindAndAge(t *testing.T) {
	s := New()
	s.Append(login(t0, 1, event.ActorOwner))
	s.Append(event.Search{Base: event.Base{Time: t0}, Account: 1, Query: "old search"})
	s.Append(login(t0.Add(40*24*time.Hour), 2, event.ActorOwner))

	now := t0.Add(41 * 24 * time.Hour)
	erased := s.Sanitize(now, Retention{Kinds: []event.Kind{event.KindLogin}, Window: 14 * 24 * time.Hour})
	if erased != 1 {
		t.Fatalf("erased = %d, want 1 (only the old login)", erased)
	}
	if len(Select[event.Search](s)) != 1 {
		t.Fatal("search record should survive a login-scoped policy")
	}
	if len(Select[event.Login](s)) != 1 {
		t.Fatal("recent login should survive")
	}
}

func TestSanitizeAllKinds(t *testing.T) {
	s := New()
	s.Append(login(t0, 1, event.ActorOwner))
	s.Append(event.Search{Base: event.Base{Time: t0.Add(time.Minute)}, Account: 1})
	erased := s.Sanitize(t0.Add(time.Hour), Retention{Window: time.Second})
	if erased != 2 || s.Len() != 0 {
		t.Fatalf("erased = %d len = %d", erased, s.Len())
	}
}

func TestKindCounts(t *testing.T) {
	s := New()
	s.Append(login(t0, 1, event.ActorOwner))
	s.Append(event.Search{Base: event.Base{Time: t0}, Account: 1})
	s.Append(event.Search{Base: event.Base{Time: t0}, Account: 1})
	kc := s.KindCounts()
	if kc[event.KindLogin] != 1 || kc[event.KindSearch] != 2 {
		t.Fatalf("kind counts = %v", kc)
	}
	kinds := s.SortedKinds()
	if len(kinds) != 2 || kinds[0] != event.KindLogin {
		t.Fatalf("sorted kinds = %v", kinds)
	}
}

// Property: Sanitize never erases records newer than the cutoff and the
// store length shrinks by exactly the erased count.
func TestSanitizeProperty(t *testing.T) {
	f := func(offsets []uint16, windowHours uint8) bool {
		s := New()
		last := t0
		for _, off := range offsets {
			last = last.Add(time.Duration(off) * time.Second)
			s.Append(login(last, 1, event.ActorOwner))
		}
		before := s.Len()
		now := last
		window := time.Duration(windowHours) * time.Hour
		erased := s.Sanitize(now, Retention{Window: window})
		if s.Len() != before-erased {
			return false
		}
		cutoff := now.Add(-window)
		ok := true
		s.Scan(func(e event.Event) {
			if e.When().Before(cutoff) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	s := New()
	ip := netip.MustParseAddr("10.1.2.3")
	s.Append(event.Login{
		Base: event.Base{Time: t0}, Account: 7, IP: ip,
		Outcome: event.LoginSuccess, RiskScore: 0.42, Session: 9,
		Actor: event.ActorHijacker,
	})
	s.Append(event.Search{Base: event.Base{Time: t0.Add(time.Minute)}, Account: 7, Query: "wire transfer", Actor: event.ActorHijacker})
	s.Append(event.MoneyWired{Base: event.Base{Time: t0.Add(time.Hour)}, VictimAccount: 7, Recipient: 9, Crew: "ng", Amount: 612.5})

	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip lost records: %d vs %d", got.Len(), s.Len())
	}
	logins := Select[event.Login](got)
	if len(logins) != 1 || logins[0].IP != ip || logins[0].RiskScore != 0.42 ||
		logins[0].Actor != event.ActorHijacker {
		t.Fatalf("login round trip = %+v", logins)
	}
	wires := Select[event.MoneyWired](got)
	if len(wires) != 1 || wires[0].Amount != 612.5 || wires[0].Crew != "ng" {
		t.Fatalf("wire round trip = %+v", wires)
	}
}

func TestNDJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadNDJSON(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadNDJSON(strings.NewReader(`{"kind":"no.such.kind","data":{}}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestNDJSONAllKindsRoundTrip(t *testing.T) {
	// One record of every kind survives the codec.
	s := New()
	b := func(min int) event.Base { return event.Base{Time: t0.Add(time.Duration(min) * time.Minute)} }
	all := []event.Event{
		event.Login{Base: b(0), Account: 1},
		event.PasswordChanged{Base: b(1), Account: 1},
		event.RecoveryChanged{Base: b(2), Account: 1, What: "email"},
		event.TwoSVEnrolled{Base: b(3), Account: 1, Phone: "+2251"},
		event.MessageSent{Base: b(4), FromAcct: 1, Recipients: []identity.Address{"a@b.test"}},
		event.Search{Base: b(5), Account: 1, Query: "bank"},
		event.FolderOpened{Base: b(6), Account: 1, Folder: event.FolderStarred},
		event.ContactsViewed{Base: b(7), Account: 1},
		event.FilterCreated{Base: b(8), Account: 1, ForwardTo: "x@y.test"},
		event.ReplyToSet{Base: b(9), Account: 1, Addr: "x@y.test"},
		event.MassDeletion{Base: b(10), Account: 1, Deleted: 5},
		event.SpamReported{Base: b(11), Reporter: 2, Message: 3},
		event.PageCreated{Base: b(12), Page: 1, Target: event.TargetMail},
		event.PageHit{Base: b(13), Page: 1, Method: "GET"},
		event.PageDetected{Base: b(14), Page: 1},
		event.PageTakedown{Base: b(15), Page: 1},
		event.LureSent{Base: b(16), Victim: "v@x.edu"},
		event.CredentialPhished{Base: b(17), Account: 1},
		event.HijackStarted{Base: b(18), Account: 1, Crew: "ng"},
		event.HijackAssessed{Base: b(19), Account: 1, Duration: 3 * time.Minute},
		event.HijackEnded{Base: b(20), Account: 1},
		event.ScamReply{Base: b(21), VictimAccount: 1, Recipient: 2},
		event.MoneyWired{Base: b(22), VictimAccount: 1, Amount: 100},
		event.NotificationSent{Base: b(23), Account: 1, Channel: event.ChannelSMS},
		event.ClaimFiled{Base: b(24), Account: 1},
		event.ClaimAttempt{Base: b(25), Account: 1, Method: event.MethodSMS},
		event.ClaimResolved{Base: b(26), Account: 1, Success: true},
		event.Remission{Base: b(27), Account: 1, RestoredMessages: 4},
	}
	for _, e := range all {
		s.Append(e)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(all) {
		t.Fatalf("round trip %d of %d kinds", got.Len(), len(all))
	}
	i := 0
	got.Scan(func(e event.Event) {
		if e.EventKind() != all[i].EventKind() {
			t.Fatalf("record %d kind = %s, want %s", i, e.EventKind(), all[i].EventKind())
		}
		i++
	})
}

// A write-only store (Discard) keeps the append checks and the tap but no
// records: it counts what it accepted, holds no reserved slice, refuses
// every read with a panic that names the mode, and cannot start spilling.
// Discard itself is refused on a store that holds, spills or sealed records.
func TestWriteOnlyStore(t *testing.T) {
	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", what)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s panicked with %q, want it to name %q", what, msg, want)
			}
		}()
		fn()
	}

	s := New()
	s.Reserve(1000)
	s.Discard()
	if c := cap(s.events); c != 0 {
		t.Fatalf("Discard kept the reserved slice: cap %d", c)
	}
	s.Reserve(1000)
	if c := cap(s.events); c != 0 {
		t.Fatalf("Reserve on a write-only store grew the slice to cap %d", c)
	}
	var seen []event.Event
	s.SetTap(func(e event.Event) { seen = append(seen, e) })
	var sent []event.Event
	for i := 0; i < 50; i++ {
		e := event.Event(login(t0.Add(time.Duration(i)*time.Minute), identity.AccountID(i+1), event.ActorOwner))
		s.Append(e)
		sent = append(sent, e)
	}
	if s.Len() != len(sent) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(sent))
	}
	if !reflect.DeepEqual(seen, sent) {
		t.Fatalf("tap saw %d records out of order or incomplete, want the %d appended", len(seen), len(sent))
	}
	if c := cap(s.events); c != 0 {
		t.Fatalf("write-only appends kept records: cap %d", c)
	}
	mustPanic("out-of-order append", "out-of-order", func() { s.Append(login(t0, 1, event.ActorOwner)) })
	if err := s.EnableSpill(SpillConfig{Dir: t.TempDir()}); err == nil || !strings.Contains(err.Error(), "write-only") {
		t.Fatalf("EnableSpill on a write-only store: err = %v, want one naming the mode", err)
	}
	if s.spill != nil {
		t.Fatal("EnableSpill armed spilling on a write-only store")
	}

	reads := []struct {
		name string
		fn   func()
	}{
		{"Scan", func() { s.Scan(func(event.Event) {}) }},
		{"ScanSegments", func() { s.ScanSegments(func(int, []event.Event) {}) }},
		{"Select", func() { Select[event.Login](s) }},
		{"SelectWhere", func() { SelectWhere(s, func(event.Login) bool { return true }) }},
		{"KindCounts", func() { s.KindCounts() }},
		{"SortedKinds", func() { s.SortedKinds() }},
		{"Sanitize", func() { s.Sanitize(t0.Add(time.Hour), Retention{Window: time.Minute}) }},
		{"WriteNDJSON", func() { _ = WriteNDJSON(&bytes.Buffer{}, s) }},
	}
	check := func(phase string) {
		for _, r := range reads {
			mustPanic(phase+" "+r.name, "write-only", r.fn)
		}
	}
	check("unsealed")
	s.Seal()
	check("sealed")
	if s.Len() != len(sent) {
		t.Fatalf("sealed Len = %d, want %d", s.Len(), len(sent))
	}
	mustPanic("append after Seal", "sealed", func() { s.Append(login(t0.Add(time.Hour), 1, event.ActorOwner)) })

	appended := New()
	appended.Append(login(t0, 1, event.ActorOwner))
	mustPanic("Discard after an append", "Discard after 1 appends", appended.Discard)
	spilling := New()
	if err := spilling.EnableSpill(SpillConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	mustPanic("Discard on a spilling store", "spilling", spilling.Discard)
	sealed := New()
	sealed.Seal()
	mustPanic("Discard on a sealed store", "sealed", sealed.Discard)
}
