package behavior

import (
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

var t0 = time.Date(2012, 11, 5, 9, 0, 0, 0, time.UTC)

func TestHijackerPlaybookFlagged(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.Begin(1, t0)
	// The canonical assessment sequence from §5.2.
	steps := []Action{
		{Type: ActionSearch, Query: "wire transfer", At: t0.Add(30 * time.Second)},
		{Type: ActionFolderOpen, Folder: event.FolderStarred, At: t0.Add(60 * time.Second)},
		{Type: ActionContactsView, At: t0.Add(90 * time.Second)},
		{Type: ActionSearch, Query: "bank", At: t0.Add(2 * time.Minute)},
	}
	var v Verdict
	for _, a := range steps {
		v = d.Observe(1, a)
	}
	if !v.Flagged {
		t.Fatalf("assessment playbook not flagged: score %.2f", v.Score)
	}
	exp, ok := d.ExposureTime(1)
	if !ok || exp <= 0 || exp > 3*time.Minute {
		t.Fatalf("exposure = %v ok=%v", exp, ok)
	}
}

func TestOrganicSessionNotFlagged(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.Begin(2, t0)
	steps := []Action{
		{Type: ActionSearch, Query: "lunch", At: t0.Add(time.Minute)},
		{Type: ActionFolderOpen, Folder: event.FolderInbox, At: t0.Add(2 * time.Minute)},
		{Type: ActionSend, Recipients: 2, At: t0.Add(3 * time.Minute)},
	}
	var v Verdict
	for _, a := range steps {
		v = d.Observe(2, a)
	}
	if v.Flagged {
		t.Fatalf("organic session flagged at score %.2f", v.Score)
	}
}

func TestMassSendThreshold(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.Begin(3, t0)
	v := d.Observe(3, Action{Type: ActionSend, Recipients: 19, At: t0})
	if v.Score != 0 {
		t.Fatalf("19 recipients scored %.2f", v.Score)
	}
	v = d.Observe(3, Action{Type: ActionSend, Recipients: 20, At: t0})
	if v.Score == 0 {
		t.Fatal("20 recipients did not score")
	}
}

func TestRetentionTacticsScoreHeavily(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.Begin(4, t0)
	d.Observe(4, Action{Type: ActionReplyToSet, At: t0.Add(time.Minute)})
	v := d.Observe(4, Action{Type: ActionFilterCreate, ForwardOut: true, At: t0.Add(2 * time.Minute)})
	if !v.Flagged || !v.FlaggedNow {
		t.Fatalf("retention tactics not flagged: %.2f", v.Score)
	}
	// FlaggedNow only fires once.
	v = d.Observe(4, Action{Type: ActionMassDelete, At: t0.Add(3 * time.Minute)})
	if v.FlaggedNow {
		t.Fatal("FlaggedNow repeated")
	}
	if !v.Flagged {
		t.Fatal("Flagged state lost")
	}
}

func TestWindowLimitsScoring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 2 * time.Minute
	d := NewDetector(cfg)
	d.Begin(5, t0)
	d.Observe(5, Action{Type: ActionSearch, Query: "wire transfer", At: t0.Add(time.Minute)})
	before := d.Score(5)
	// Past the window: no more scoring.
	d.Observe(5, Action{Type: ActionMassDelete, At: t0.Add(10 * time.Minute)})
	if d.Score(5) != before {
		t.Fatal("action past window changed the score")
	}
}

func TestUnknownSessionIgnored(t *testing.T) {
	d := NewDetector(DefaultConfig())
	v := d.Observe(99, Action{Type: ActionMassDelete, At: t0})
	if v.Score != 0 || v.Flagged {
		t.Fatalf("unknown session verdict = %+v", v)
	}
	if _, ok := d.FlaggedAt(99); ok {
		t.Fatal("unknown session flagged")
	}
	if _, ok := d.ExposureTime(99); ok {
		t.Fatal("unknown session has exposure")
	}
}

func TestCredentialSearchScoresLessThanFinance(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.Begin(6, t0)
	d.Begin(7, t0)
	vFin := d.Observe(6, Action{Type: ActionSearch, Query: "bank transfer", At: t0})
	vCred := d.Observe(7, Action{Type: ActionSearch, Query: "paypal", At: t0})
	if vFin.Score <= vCred.Score {
		t.Fatalf("finance %.2f should exceed credential %.2f", vFin.Score, vCred.Score)
	}
}

func TestChineseFinanceTermMatches(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.Begin(8, t0)
	v := d.Observe(8, Action{Type: ActionSearch, Query: "账单", At: t0})
	if v.Score == 0 {
		t.Fatal("Chinese finance term not matched")
	}
}

func TestActionOf(t *testing.T) {
	b := event.Base{Time: t0}
	cases := []struct {
		e    event.Event
		want Action
	}{
		{event.Search{Base: b, Query: "bank", Session: 3}, Action{Type: ActionSearch, Query: "bank"}},
		{event.FolderOpened{Base: b, Folder: event.FolderDrafts, Session: 3}, Action{Type: ActionFolderOpen, Folder: event.FolderDrafts}},
		{event.ContactsViewed{Base: b, Session: 3}, Action{Type: ActionContactsView}},
		{event.FilterCreated{Base: b, ForwardTo: "x@y.test", Session: 3}, Action{Type: ActionFilterCreate, ForwardOut: true}},
		{event.FilterCreated{Base: b, Session: 3}, Action{Type: ActionFilterCreate}},
		{event.ReplyToSet{Base: b, Addr: "x@y.test", Session: 3}, Action{Type: ActionReplyToSet}},
		{event.MessageSent{Base: b, Recipients: []identity.Address{"a@b.test", "c@d.test"}, Session: 3}, Action{Type: ActionSend, Recipients: 2}},
		{event.MassDeletion{Base: b, Deleted: 9, Session: 3}, Action{Type: ActionMassDelete}},
	}
	for _, c := range cases {
		c.want.At = t0
		if sess, a, ok := ActionOf(c.e); !ok || sess != 3 || a != c.want {
			t.Errorf("ActionOf(%+v) = %d, %+v, %v; want 3, %+v, true", c.e, sess, a, ok, c.want)
		}
	}
	// Not a mailbox action, or not in a session.
	for _, e := range []event.Event{
		event.Login{Base: b, Session: 3, Outcome: event.LoginSuccess},
		event.Search{Base: b, Query: "bank"},
		event.MessageSent{Base: b, Recipients: []identity.Address{"a@b.test"}},
	} {
		if _, _, ok := ActionOf(e); ok {
			t.Errorf("ActionOf(%+v) ok, want not an in-session action", e)
		}
	}
}
