package mail

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
	"manualhijack/internal/simtime"
)

type fixture struct {
	dir   *identity.Directory
	clock *simtime.Clock
	log   *logstore.Store
	svc   *Service
}

func newFixture(t *testing.T, n int, seed int64) *fixture {
	t.Helper()
	clock := simtime.NewClock(simtime.Epoch)
	cfg := identity.DefaultConfig(simtime.Epoch)
	cfg.N = n
	dir := identity.NewDirectory(randx.New(seed), cfg)
	log := logstore.New()
	svc := NewService(dir, clock, log)
	return &fixture{dir: dir, clock: clock, log: log, svc: svc}
}

func TestSeedPopulatesMailboxes(t *testing.T) {
	f := newFixture(t, 200, 1)
	f.svc.Seed(randx.New(1), DefaultSeedConfig())
	empty := 0
	f.dir.All(func(a *identity.Account) {
		if f.svc.Mailbox(a.ID).Len() == 0 {
			empty++
		}
	})
	if empty > 0 {
		t.Fatalf("%d mailboxes empty after seed", empty)
	}
	if f.log.Len() != 0 {
		t.Fatalf("seeding logged %d events; history must not be logged", f.log.Len())
	}
}

func TestFinanceAccountRate(t *testing.T) {
	f := newFixture(t, 2000, 2)
	f.svc.Seed(randx.New(2), DefaultSeedConfig())
	withFinance := 0
	f.dir.All(func(a *identity.Account) {
		if f.svc.FinancialValue(a.ID) > 0 {
			withFinance++
		}
	})
	rate := float64(withFinance) / 2000
	if rate < 0.35 || rate > 0.60 {
		t.Fatalf("finance-account rate = %.3f, want ~0.45", rate)
	}
}

func TestSendDeliversToProviderRecipients(t *testing.T) {
	f := newFixture(t, 10, 3)
	a, b := f.dir.Get(1), f.dir.Get(2)
	before := f.svc.Mailbox(b.ID).Len()
	f.svc.Send(SendReq{
		FromAcct: a.ID, FromAddr: a.Addr,
		Recipients: []identity.Address{b.Addr, "outsider@web.org"},
		Keywords:   []string{"lunch"}, Class: event.ClassOrganic,
		Actor: event.ActorOwner,
	})
	if got := f.svc.Mailbox(b.ID).Len(); got != before+1 {
		t.Fatalf("recipient mailbox grew by %d, want 1", got-before)
	}
	// Sender keeps a Sent copy.
	if got := f.svc.Mailbox(a.ID).InFolder(event.FolderSent); got != 1 {
		t.Fatalf("sender sent-folder = %d, want 1", got)
	}
	sent := logstore.Select[event.MessageSent](f.log)
	if len(sent) != 1 || len(sent[0].Recipients) != 2 {
		t.Fatalf("sent events = %+v", sent)
	}
}

func TestSearchLogsAndCounts(t *testing.T) {
	f := newFixture(t, 5, 4)
	a := f.dir.Get(1)
	f.svc.Send(SendReq{
		FromAcct: 2, FromAddr: f.dir.Get(2).Addr,
		Recipients: []identity.Address{a.Addr},
		Keywords:   []string{"wire transfer", "urgent"}, Class: event.ClassOrganic,
		Actor: event.ActorOwner,
	})
	mb := f.svc.Mailbox(a.ID)
	f.svc.Search(a.ID, "wire transfer", 1, event.ActorHijacker)
	if hits := mb.CountMatching("wire transfer"); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	// Case-insensitive substring match.
	f.svc.Search(a.ID, "WIRE", 1, event.ActorHijacker)
	if got := mb.CountMatching("WIRE"); got != 1 {
		t.Fatalf("case-insensitive hits = %d, want 1", got)
	}
	searches := logstore.Select[event.Search](f.log)
	if len(searches) != 2 || searches[0].Actor != event.ActorHijacker {
		t.Fatalf("search events = %+v", searches)
	}
}

func TestFolderAndStarredSemantics(t *testing.T) {
	f := newFixture(t, 5, 5)
	mb := f.svc.Mailbox(1)
	// Hand-plant messages.
	mb.msgs = []stored{
		{folder: event.FolderInbox, starred: true},
		{folder: event.FolderDrafts},
		{folder: event.FolderSent, starred: true},
	}
	if got := mb.InFolder(event.FolderStarred); got != 2 {
		t.Fatalf("starred = %d, want 2 (flag spans folders)", got)
	}
	if got := mb.InFolder(event.FolderDrafts); got != 1 {
		t.Fatalf("drafts = %d", got)
	}
	f.svc.OpenFolder(1, event.FolderDrafts, 9, event.ActorHijacker)
	opens := logstore.Select[event.FolderOpened](f.log)
	if len(opens) != 1 || opens[0].Folder != event.FolderDrafts {
		t.Fatalf("folder events = %+v", opens)
	}
}

func TestReplyToStampedOnOutbound(t *testing.T) {
	f := newFixture(t, 5, 6)
	a, b := f.dir.Get(1), f.dir.Get(2)
	var delivered []Message
	f.svc.SetDeliveryHook(func(_ identity.AccountID, m Message) { delivered = append(delivered, m) })
	f.svc.SetReplyTo(a.ID, "doppel@evil.test", 1, event.ActorHijacker)
	f.svc.Send(SendReq{
		FromAcct: a.ID, FromAddr: a.Addr,
		Recipients: []identity.Address{b.Addr},
		Class:      event.ClassScam, Actor: event.ActorHijacker,
	})
	sent := logstore.Select[event.MessageSent](f.log)
	if sent[0].ReplyTo != "doppel@evil.test" {
		t.Fatalf("ReplyTo = %q", sent[0].ReplyTo)
	}
	// Delivered copy carries it too.
	if len(delivered) != 1 || delivered[0].ReplyTo != "doppel@evil.test" {
		t.Fatalf("delivered copies = %+v", delivered)
	}
}

func TestFilterDivertsIncoming(t *testing.T) {
	f := newFixture(t, 5, 7)
	a, b := f.dir.Get(1), f.dir.Get(2)
	var delivered []Message
	f.svc.SetDeliveryHook(func(_ identity.AccountID, m Message) { delivered = append(delivered, m) })
	f.svc.CreateFilter(a.ID, Filter{ToTrash: true, ForwardTo: "doppel@evil.test"}, 1, event.ActorHijacker)
	f.svc.Send(SendReq{
		FromAcct: b.ID, FromAddr: b.Addr,
		Recipients: []identity.Address{a.Addr},
		Class:      event.ClassOrganic, Actor: event.ActorOwner,
	})
	mb := f.svc.Mailbox(a.ID)
	if trash := mb.InFolder(event.FolderTrash); trash != 1 {
		t.Fatalf("trash = %d, want 1 (filter should divert)", trash)
	}
	if !mb.HasForwardingFilter() {
		t.Fatal("forwarding filter not detected")
	}
	if len(delivered) != 1 || !delivered[0].Forwarded {
		t.Fatalf("message not marked forwarded: %+v", delivered)
	}
}

func TestMassDeleteAndRestore(t *testing.T) {
	f := newFixture(t, 5, 8)
	f.svc.Seed(randx.New(8), DefaultSeedConfig())
	a := f.dir.Get(1)
	contactsBefore := len(a.Contacts)
	msgsBefore := f.svc.Mailbox(a.ID).Len()
	if msgsBefore == 0 || contactsBefore == 0 {
		t.Fatal("fixture account has no content")
	}

	deleted := f.svc.MassDelete(a.ID, 1, event.ActorHijacker)
	if deleted != msgsBefore {
		t.Fatalf("deleted = %d, want %d", deleted, msgsBefore)
	}
	if f.svc.Mailbox(a.ID).Len() != 0 || len(a.Contacts) != 0 {
		t.Fatal("mass delete left content behind")
	}
	if got := f.svc.ViewContacts(a.ID, 1, event.ActorHijacker); got != nil {
		t.Fatal("wiped contacts should view as empty")
	}

	// Hijacker settings present before restore.
	f.svc.SetReplyTo(a.ID, "doppel@evil.test", 1, event.ActorHijacker)
	f.svc.CreateFilter(a.ID, Filter{ForwardTo: "doppel@evil.test"}, 1, event.ActorHijacker)

	restored, cleared := f.svc.Restore(a.ID)
	if restored != msgsBefore {
		t.Fatalf("restored = %d, want %d", restored, msgsBefore)
	}
	if !cleared {
		t.Fatal("hijacker settings not cleared")
	}
	if len(a.Contacts) != contactsBefore {
		t.Fatalf("contacts = %d, want %d", len(a.Contacts), contactsBefore)
	}
	mb := f.svc.Mailbox(a.ID)
	if mb.ReplyTo != "" || mb.HasForwardingFilter() {
		t.Fatal("hijacker settings survived restore")
	}
}

func TestRestorePreservesOwnerSettings(t *testing.T) {
	f := newFixture(t, 5, 9)
	a := f.dir.Get(1)
	f.svc.CreateFilter(a.ID, Filter{ToTrash: true}, 1, event.ActorOwner)
	f.svc.SetReplyTo(a.ID, "me.alt@web.org", 1, event.ActorOwner)
	_, cleared := f.svc.Restore(a.ID)
	if cleared {
		t.Fatal("owner settings wrongly reported cleared")
	}
	mb := f.svc.Mailbox(a.ID)
	if len(mb.Filters) != 1 || mb.ReplyTo != "me.alt@web.org" {
		t.Fatal("owner settings removed by restore")
	}
}

func TestRestoreIdempotent(t *testing.T) {
	f := newFixture(t, 5, 10)
	f.svc.Seed(randx.New(10), DefaultSeedConfig())
	a := f.dir.Get(1)
	n := f.svc.Mailbox(a.ID).Len()
	f.svc.MassDelete(a.ID, 1, event.ActorHijacker)
	r1, _ := f.svc.Restore(a.ID)
	r2, _ := f.svc.Restore(a.ID)
	if r1 != n || r2 != 0 {
		t.Fatalf("restore twice: %d then %d, want %d then 0", r1, r2, n)
	}
	if f.svc.Mailbox(a.ID).Len() != n {
		t.Fatal("double restore duplicated messages")
	}
}

func TestSpamReportLogged(t *testing.T) {
	f := newFixture(t, 5, 11)
	f.svc.ReportSpam(2, 77, "x@y.test", 1, event.ClassScam)
	reports := logstore.Select[event.SpamReported](f.log)
	if len(reports) != 1 || reports[0].Class != event.ClassScam || reports[0].Message != 77 {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestUnknownAccountSafe(t *testing.T) {
	f := newFixture(t, 3, 12)
	f.svc.Search(99, "x", 1, event.ActorOwner)
	f.svc.OpenFolder(99, event.FolderInbox, 1, event.ActorOwner)
	f.svc.CreateFilter(99, Filter{ToTrash: true}, 1, event.ActorOwner)
	f.svc.SetReplyTo(99, "x@y.test", 1, event.ActorOwner)
	if f.svc.MassDelete(99, 1, event.ActorOwner) != 0 {
		t.Fatal("unknown account delete")
	}
	if n, c := f.svc.Restore(99); n != 0 || c {
		t.Fatal("unknown account restore")
	}
	if f.svc.ViewContacts(99, 1, event.ActorOwner) != nil {
		t.Fatal("unknown account contacts")
	}
	if f.log.Len() != 0 {
		t.Fatalf("unknown account actions logged %d events", f.log.Len())
	}
}

func TestEventTimesAdvanceWithClock(t *testing.T) {
	f := newFixture(t, 3, 13)
	a := f.dir.Get(1)
	f.svc.Search(a.ID, "x", 1, event.ActorOwner)
	f.clock.Advance(2 * time.Hour)
	f.svc.Search(a.ID, "y", 1, event.ActorOwner)
	searches := logstore.Select[event.Search](f.log)
	if d := searches[1].When().Sub(searches[0].When()); d != 2*time.Hour {
		t.Fatalf("event spacing = %v", d)
	}
}

// Property: delivering any sequence of messages then mass-deleting and
// restoring returns the mailbox to the same size; a duplicated message
// would show as a longer mailbox.
func TestDeleteRestoreRoundTripProperty(t *testing.T) {
	f := newFixture(t, 4, 14)
	a, b := f.dir.Get(1), f.dir.Get(2)
	prop := func(batch uint8) bool {
		n := int(batch % 20)
		for i := 0; i < n; i++ {
			f.svc.Send(SendReq{
				FromAcct: b.ID, FromAddr: b.Addr,
				Recipients: []identity.Address{a.Addr},
				Class:      event.ClassOrganic, Actor: event.ActorOwner,
			})
		}
		mb := f.svc.Mailbox(a.ID)
		before := mb.Len()
		f.svc.MassDelete(a.ID, 1, event.ActorHijacker)
		restored, _ := f.svc.Restore(a.ID)
		return restored == before && mb.Len() == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchOperators(t *testing.T) {
	f := newFixture(t, 5, 15)
	mb := f.svc.Mailbox(1)
	mb.msgs = []stored{
		{keywords: []string{"vacation", "jpg"}, starred: true, folder: event.FolderInbox},
		{keywords: []string{"report", "png"}, folder: event.FolderInbox},
		{keywords: []string{"lunch"}, folder: event.FolderInbox},
	}

	if got := mb.CountMatching("is:starred"); got != 1 {
		t.Fatalf("is:starred = %d, want 1", got)
	}
	if got := mb.CountMatching("filename:(jpg or jpeg or png)"); got != 2 {
		t.Fatalf("filename query = %d, want 2", got)
	}
	if got := mb.CountMatching("filename:(pdf)"); got != 0 {
		t.Fatalf("filename pdf = %d, want 0", got)
	}
	// Plain queries still work, case-insensitively.
	if got := mb.CountMatching("LUNCH"); got != 1 {
		t.Fatalf("plain query = %d, want 1", got)
	}
}

// Each of the seven in-session actions hands the action hook exactly the
// record it logged; the same actions outside a session reach the log
// only.
func TestActionHookSeesLoggedRecords(t *testing.T) {
	f := newFixture(t, 5, 16)
	a, b := f.dir.Get(1), f.dir.Get(2)
	var hooked []event.Event
	f.svc.SetActionHook(func(acct identity.AccountID, e event.Event) {
		if acct != a.ID {
			t.Errorf("hook account = %d, want %d", acct, a.ID)
		}
		hooked = append(hooked, e)
	})
	actions := func(sess event.SessionID) {
		f.svc.Search(a.ID, "bank", sess, event.ActorHijacker)
		f.svc.OpenFolder(a.ID, event.FolderStarred, sess, event.ActorHijacker)
		f.svc.ViewContacts(a.ID, sess, event.ActorHijacker)
		f.svc.CreateFilter(a.ID, Filter{ForwardTo: "doppel@evil.test"}, sess, event.ActorHijacker)
		f.svc.SetReplyTo(a.ID, "doppel@evil.test", sess, event.ActorHijacker)
		f.svc.Send(SendReq{
			FromAcct: a.ID, FromAddr: a.Addr, Recipients: []identity.Address{b.Addr},
			Class: event.ClassScam, Session: sess, Actor: event.ActorHijacker,
		})
		f.svc.MassDelete(a.ID, sess, event.ActorHijacker)
	}
	actions(7)
	var logged []event.Event
	f.log.Scan(func(e event.Event) { logged = append(logged, e) })
	if !reflect.DeepEqual(hooked, logged) {
		t.Fatalf("hook saw %+v\nlog holds %+v", hooked, logged)
	}
	if len(hooked) != 7 {
		t.Fatalf("hook saw %d records, want 7", len(hooked))
	}
	hooked = nil
	actions(0)
	if len(hooked) != 0 || f.log.Len() != 14 {
		t.Fatalf("outside a session: hook saw %d records, log holds %d, want 0 and 14", len(hooked), f.log.Len())
	}
}
