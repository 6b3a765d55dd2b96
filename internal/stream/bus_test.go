package stream_test

import (
	"sync"
	"testing"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/stream"
)

var t0 = time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC)

func login(at time.Time, acct identity.AccountID, actor event.Actor, outcome event.LoginOutcome) event.Login {
	return event.Login{
		Base:    event.Base{Time: at},
		Account: acct,
		Actor:   actor,
		Outcome: outcome,
	}
}

func TestBusRejectsOutOfOrder(t *testing.T) {
	bus := stream.NewBus(stream.DefaultSuite(core.DefaultIPPlan())...)
	if !bus.Publish(login(t0.Add(time.Hour), 1, event.ActorHijacker, event.LoginSuccess)) {
		t.Fatal("first event rejected")
	}
	// Strictly earlier: dropped.
	if bus.Publish(login(t0, 2, event.ActorHijacker, event.LoginSuccess)) {
		t.Fatal("out-of-order event accepted")
	}
	// Equal timestamp: accepted (the simulation batches events per tick).
	if !bus.Publish(login(t0.Add(time.Hour), 3, event.ActorHijacker, event.LoginSuccess)) {
		t.Fatal("equal-timestamp event rejected")
	}
	snap := bus.Snapshot()
	if snap.EventsObserved != 2 || snap.EventsDropped != 1 {
		t.Fatalf("observed=%d dropped=%d, want 2/1", snap.EventsObserved, snap.EventsDropped)
	}
	// The dropped event must not have reached the analyses.
	if snap.Lifecycle.AccountsAttempted != 2 {
		t.Fatalf("funnel attempted=%d, want 2 (dropped event leaked through)",
			snap.Lifecycle.AccountsAttempted)
	}
}

// TestBusMidWindowSnapshots takes reports while the feed is still flowing
// and checks each snapshot reflects exactly the prefix observed so far.
func TestBusMidWindowSnapshots(t *testing.T) {
	bus := stream.NewBus(stream.DefaultSuite(core.DefaultIPPlan())...)

	bus.Publish(event.LureSent{Base: event.Base{Time: t0}})
	snap := bus.Snapshot()
	if snap.Lifecycle.LuresDelivered != 1 || snap.Lifecycle.AccountsEntered != 0 {
		t.Fatalf("after lure: funnel %+v, want 1 lure, 0 entered", snap.Lifecycle)
	}

	bus.Publish(event.CredentialPhished{Base: event.Base{Time: t0.Add(time.Minute)}, Account: 9})
	bus.Publish(login(t0.Add(2*time.Minute), 9, event.ActorHijacker, event.LoginSuccess))
	snap = bus.Snapshot()
	if snap.Lifecycle.CredentialsCaptured != 1 || snap.Lifecycle.AccountsEntered != 1 {
		t.Fatalf("mid-window funnel %+v, want 1 cred, 1 entered", snap.Lifecycle)
	}
	if snap.Fig8.IPDays != 1 || snap.Fig8.MeanAttemptsPerIPDay != 1 {
		t.Fatalf("mid-window fig8 %+v, want one IP-day with one attempt", snap.Fig8)
	}

	// A second attempt from the same (zero) IP on the same day: the
	// aggregates advance, the earlier snapshot stays immutable.
	bus.Publish(login(t0.Add(3*time.Minute), 10, event.ActorHijacker, event.LoginWrongPassword))
	snap2 := bus.Snapshot()
	if snap2.Fig8.MeanAttemptsPerIPDay != 2 {
		t.Fatalf("fig8 after second attempt: mean=%v, want 2", snap2.Fig8.MeanAttemptsPerIPDay)
	}
	if snap.Fig8.MeanAttemptsPerIPDay != 1 {
		t.Fatal("earlier snapshot mutated by later Publish")
	}
}

// TestBusConcurrentObserveReport hammers Publish and Snapshot from many
// goroutines; run under -race it proves the bus serializes the
// single-goroutine builders. Publishers share one monotone timeline, so a
// mix of accepts and drops is expected — the invariant is
// observed+dropped == published and no torn reports.
func TestBusConcurrentObserveReport(t *testing.T) {
	bus := stream.NewBus(stream.DefaultSuite(core.DefaultIPPlan())...)
	const (
		writers   = 4
		perWriter = 500
		readers   = 2
	)
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				at := t0.Add(time.Duration(i) * time.Second)
				bus.Publish(login(at, identity.AccountID(w*perWriter+i),
					event.ActorHijacker, event.LoginSuccess))
			}
		}(w)
	}
	done := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := bus.Snapshot()
				// A torn report would show fewer funnel attempts than a
				// finished Publish implies; mostly this read exists so the
				// race detector sees concurrent Snapshot traffic.
				if int64(snap.Lifecycle.AccountsAttempted) > snap.EventsObserved {
					t.Error("snapshot shows more attempts than observed events")
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(done)
	readerWG.Wait()

	snap := bus.Snapshot()
	if snap.EventsObserved+snap.EventsDropped != writers*perWriter {
		t.Fatalf("observed=%d dropped=%d, want total %d",
			snap.EventsObserved, snap.EventsDropped, writers*perWriter)
	}
	if snap.EventsObserved == 0 {
		t.Fatal("no events accepted")
	}
}
