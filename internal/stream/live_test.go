package stream_test

import (
	"reflect"
	"testing"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/stream"
)

// TestLiveSetMatchesRegistry pins the live set to the registry: every live
// name is a registry entry that runs without the account directory,
// DefaultSuite builds one builder per name, and a snapshot leaves the
// builders as it found them.
func TestLiveSetMatchesRegistry(t *testing.T) {
	entries := map[string]core.Analysis{}
	for _, a := range core.Registry() {
		entries[a.Name] = a
	}
	live := stream.Live()
	for _, name := range live {
		a, ok := entries[name]
		if !ok {
			t.Errorf("live analysis %q is not in core.Registry()", name)
			continue
		}
		if a.NeedsDir {
			t.Errorf("live analysis %q needs the account directory", name)
		}
	}
	suite := stream.DefaultSuite(core.DefaultIPPlan())
	if len(suite) != len(live) {
		t.Fatalf("DefaultSuite built %d builders for %d live analyses", len(suite), len(live))
	}

	// A feed that reaches every live analysis: a Forms page with a
	// submission (Figure 6), a phished account entered by a tagged
	// hijacker (lifecycle, Figures 8 and 11, scorecard) and an owner login
	// (the scorecard's owner-cost row).
	bus := stream.NewBus(suite...)
	at := func(min int) event.Base { return event.Base{Time: t0.Add(time.Duration(min) * time.Minute)} }
	bus.Publish(event.PageCreated{Base: at(0), Page: 1, OnForms: true})
	bus.Publish(event.PageHit{Base: at(1), Page: 1, Method: "POST", Victim: "v@x.edu"})
	bus.Publish(event.PageTakedown{Base: at(2), Page: 1})
	bus.Publish(event.CredentialPhished{Base: at(3), Account: 9})
	hijack := login(t0.Add(4*time.Minute), 9, event.ActorHijacker, event.LoginSuccess)
	hijack.Archetype = "manual"
	bus.Publish(hijack)
	bus.Publish(login(t0.Add(5*time.Minute), 10, event.ActorOwner, event.LoginSuccess))

	first, second := bus.Snapshot(), bus.Snapshot()
	if first.Lifecycle.AccountsEntered != 1 || first.Fig6.Pages != 1 || len(first.Scorecard.Rows) != 1 {
		t.Fatalf("feed did not reach the live analyses: %+v", first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two snapshots with no Publish between them differ:\n%+v\n%+v", first, second)
	}
}
