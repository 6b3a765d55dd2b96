package analysis

import (
	"net/netip"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

func scorecardLogin(at time.Time, acct identity.AccountID, actor event.Actor, arch string, outcome event.LoginOutcome, challenged bool) event.Login {
	return event.Login{
		Base: event.Base{Time: at}, Account: acct,
		IP: netip.MustParseAddr("10.0.0.1"), Outcome: outcome,
		Challenged: challenged, Actor: actor, Archetype: arch,
	}
}

func TestArchetypeScorecardBuilder(t *testing.T) {
	t0 := time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC)
	events := []event.Event{
		// smashgrab: account 1 slips in clean, then is challenged 2h later.
		scorecardLogin(t0, 1, event.ActorHijacker, "smashgrab", event.LoginSuccess, false),
		scorecardLogin(t0.Add(2*time.Hour), 1, event.ActorHijacker, "smashgrab", event.LoginSuccess, true),
		// smashgrab: account 2 blocked on first contact (TTD 0).
		scorecardLogin(t0.Add(time.Hour), 2, event.ActorHijacker, "smashgrab", event.LoginBlocked, false),
		// stuffer: account 3 never detected.
		scorecardLogin(t0.Add(3*time.Hour), 3, event.ActorHijacker, "stuffer", event.LoginSuccess, false),
		// Untagged hijacker login (pre-archetype dump): outside the rows.
		scorecardLogin(t0.Add(4*time.Hour), 4, event.ActorHijacker, "", event.LoginSuccess, false),
		// Owner traffic: one clean, one challenged, one blocked.
		scorecardLogin(t0.Add(5*time.Hour), 5, event.ActorOwner, "", event.LoginSuccess, false),
		scorecardLogin(t0.Add(6*time.Hour), 6, event.ActorOwner, "", event.LoginSuccess, true),
		scorecardLogin(t0.Add(7*time.Hour), 7, event.ActorOwner, "", event.LoginBlocked, false),
	}

	b := NewArchetypeScorecardBuilder()
	for _, e := range events {
		b.Observe(e)
	}
	sc := b.Scorecard()

	if len(sc.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (smashgrab, stuffer): %+v", len(sc.Rows), sc.Rows)
	}
	sg := sc.Rows[0]
	if sg.Archetype != "smashgrab" || sg.Accounts != 2 || sg.Attempts != 3 ||
		sg.Logins != 2 || sg.Challenged != 1 || sg.Blocked != 1 || sg.Detected != 2 {
		t.Errorf("smashgrab row wrong: %+v", sg)
	}
	if sg.Recall != 1.0 {
		t.Errorf("smashgrab recall %v, want 1.0", sg.Recall)
	}
	// TTDs: account 1 detected after 2h, account 2 after 0 → median 1h.
	if sg.MedianTTD != time.Hour {
		t.Errorf("smashgrab median TTD %v, want 1h", sg.MedianTTD)
	}
	st := sc.Rows[1]
	if st.Archetype != "stuffer" || st.Detected != 0 || st.Recall != 0 || st.MedianTTD != 0 {
		t.Errorf("stuffer row wrong: %+v", st)
	}
	if sc.OwnerLogins != 3 || sc.OwnerChallenged != 1 || sc.OwnerBlocked != 1 {
		t.Errorf("owner FP cost wrong: %+v", sc)
	}
}
