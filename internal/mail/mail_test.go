package mail

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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
		{folder: codeInbox, starred: true},
		{folder: codeDrafts},
		{folder: codeSent, starred: true},
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
	sets := f.svc.sets
	mb.msgs = []stored{
		{set: sets.intern([]string{"vacation", "jpg"}), starred: true, folder: codeInbox},
		{set: sets.intern([]string{"report", "png"}), folder: codeInbox},
		{set: sets.intern([]string{"lunch"}), folder: codeInbox},
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

// refMsg is the differential model's message: the plain record a mailbox
// kept before records were packed.
type refMsg struct {
	keywords []string
	folder   event.Folder
	starred  bool
}

// refBox is the model of one mailbox.
type refBox struct {
	msgs, backup []refMsg
	trashFilters []event.Actor // creators of the box's to-Trash filters
}

// refSeed mirrors Service.Seed's draws into the model.
func refSeed(boxes map[identity.AccountID]*refBox, dir *identity.Directory, r *randx.Rand, cfg SeedConfig) {
	gen := r.Fork("mailseed")
	dir.All(func(a *identity.Account) {
		mb := boxes[a.ID]
		hasFinance := gen.Bool(cfg.FinanceAccountRate)
		n := 1 + gen.Poisson(float64(cfg.MeanMessages))
		for i := 0; i < n; i++ {
			var kw []string
			switch {
			case hasFinance && gen.Bool(0.25):
				kw = []string{randx.Pick(gen, FinanceKeywords), randx.Pick(gen, FillerKeywords)}
			case gen.Bool(0.10):
				kw = []string{randx.Pick(gen, CredentialKeywords)}
			case gen.Bool(0.15):
				kw = []string{randx.Pick(gen, ContentKeywords)}
			default:
				kw = []string{randx.Pick(gen, FillerKeywords)}
			}
			if len(a.Contacts) > 0 {
				randx.Pick(gen, a.Contacts)
			}
			folder := event.FolderInbox
			if gen.Bool(cfg.DraftRate) {
				folder = event.FolderDrafts
			} else if gen.Bool(0.3) {
				folder = event.FolderSent
			}
			mb.msgs = append(mb.msgs, refMsg{keywords: kw, folder: folder, starred: gen.Bool(cfg.StarRate)})
			gen.ExpDuration(90 * 24 * time.Hour)
		}
	})
}

// count is the model's search: every message's every keyword, lower-cased
// per comparison.
func (b *refBox) count(query string) int {
	q := strings.ToLower(strings.TrimSpace(query))
	terms := []string{q}
	if rest, ok := strings.CutPrefix(q, "filename:"); ok {
		terms = nil
		for _, part := range strings.Split(strings.Trim(rest, "() "), " or ") {
			if part = strings.TrimSpace(part); part != "" {
				terms = append(terms, part)
			}
		}
	}
	n := 0
	for _, m := range b.msgs {
		if q == "is:starred" {
			if m.starred {
				n++
			}
			continue
		}
	search:
		for _, t := range terms {
			for _, k := range m.keywords {
				if strings.Contains(strings.ToLower(k), t) {
					n++
					break search
				}
			}
		}
	}
	return n
}

func (b *refBox) inFolder(f event.Folder) int {
	n := 0
	for _, m := range b.msgs {
		if f == event.FolderStarred && m.starred || f != event.FolderStarred && m.folder == f {
			n++
		}
	}
	return n
}

// diffQueries are Table 3's search terms, its two operators, and
// mixed-case and no-hit variants.
var diffQueries = []string{
	"wire transfer", "bank transfer", "transfer", "bank", "wire", "transferencia",
	"investment", "banco", "账单", "statement", "signature",
	"password", "amazon", "paypal", "dropbox", "match", "ftp", "facebook", "skype", "username",
	"jpg", "mov", "mp4", "3gp", "passport", "sex", "zip",
	"filename:(jpg or jpeg or png)", "is:starred", "filename:(pdf)",
	"Wire Transfer", "BANK", "PayPal", "  IS:Starred ", "FILENAME:(JPG or Png)", "Zip", "nothing-matches",
}

// diffKeywords are the keyword sets the random sends carry: the seed
// lexicons, the attacker archetypes' sets, mixed case, and none.
var diffKeywords = [][]string{
	nil,
	{"lunch"},
	{"wire transfer", "urgent"},
	{"Wire Transfer", "URGENT"},
	{"urgent", "money", "western union"},
	{"password", "verify", "account"},
	{"IMG_0042.JPG", "vacation"},
	{"scan.PNG"},
	{"Bank Statement"},
	{"invoice", "payment"},
	{"账单"},
	{""},
}

// The packed mailbox answers every read exactly as the plain model does,
// over random histories of seeding, sends through to-Trash filters, mass
// deletions and restores.
func TestMailboxMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		f := newFixture(t, 6, 40+seed)
		ids := f.dir.IDs()
		boxes := map[identity.AccountID]*refBox{}
		for _, id := range ids {
			boxes[id] = &refBox{}
		}
		r := randx.New(seed)
		cfg := SeedConfig{MeanMessages: 8, FinanceAccountRate: 0.5, StarRate: 0.2, DraftRate: 0.1}
		step := func(i int) {
			acct := randx.Pick(r, ids)
			b := boxes[acct]
			switch op := r.Intn(10); {
			case i == 0 || op == 0:
				refSeed(boxes, f.dir, randx.New(seed*100+int64(i)), cfg)
				f.svc.Seed(randx.New(seed*100+int64(i)), cfg)
			case op <= 5:
				kw := randx.Pick(r, diffKeywords)
				var rcpts []identity.Address
				for _, id := range ids {
					if r.Bool(0.3) {
						rcpts = append(rcpts, f.dir.Get(id).Addr)
					}
				}
				rcpts = append(rcpts, "outsider@web.org")
				b.msgs = append(b.msgs, refMsg{keywords: kw, folder: event.FolderSent})
				for _, a := range rcpts {
					rb := boxes[f.dir.Lookup(a)]
					if rb == nil {
						continue
					}
					folder := event.FolderInbox
					if len(rb.trashFilters) > 0 {
						folder = event.FolderTrash
					}
					rb.msgs = append(rb.msgs, refMsg{keywords: kw, folder: folder})
				}
				f.svc.Send(SendReq{
					FromAcct: acct, FromAddr: f.dir.Get(acct).Addr, Recipients: rcpts,
					Keywords: kw, Class: event.ClassOrganic, Actor: event.ActorOwner,
				})
			case op == 6:
				actor := event.ActorHijacker
				if r.Bool(0.3) {
					actor = event.ActorOwner
				}
				b.trashFilters = append(b.trashFilters, actor)
				f.svc.CreateFilter(acct, Filter{ToTrash: true}, 1, actor)
			case op <= 8:
				b.backup, b.msgs = append(b.backup, b.msgs...), nil
				f.svc.MassDelete(acct, 1, event.ActorHijacker)
			default:
				b.msgs, b.backup = append(b.msgs, b.backup...), nil
				var keep []event.Actor
				for _, by := range b.trashFilters {
					if by != event.ActorHijacker {
						keep = append(keep, by)
					}
				}
				b.trashFilters = keep
				f.svc.Restore(acct)
			}
		}
		folders := []event.Folder{event.FolderInbox, event.FolderStarred, event.FolderDrafts,
			event.FolderSent, event.FolderTrash, event.FolderSpam}
		for i := 0; i < 200; i++ {
			step(i)
			for _, id := range ids {
				mb, b := f.svc.Mailbox(id), boxes[id]
				if mb.Len() != len(b.msgs) {
					t.Fatalf("seed %d step %d account %d: Len = %d, model %d", seed, i, id, mb.Len(), len(b.msgs))
				}
				for _, fo := range folders {
					if got, want := mb.InFolder(fo), b.inFolder(fo); got != want {
						t.Fatalf("seed %d step %d account %d: InFolder(%s) = %d, model %d", seed, i, id, fo, got, want)
					}
				}
				for _, q := range diffQueries {
					if got, want := mb.CountMatching(q), b.count(q); got != want {
						t.Fatalf("seed %d step %d account %d: CountMatching(%q) = %d, model %d", seed, i, id, q, got, want)
					}
				}
			}
		}
	}
}

// A mailbox record holds no pointers and fits in 8 bytes, so the garbage
// collector never scans a mailbox's messages and a world's largest
// allocation stays small.
func TestStoredLayoutFence(t *testing.T) {
	if typ := reflect.TypeOf(stored{}); hasPointers(typ) {
		t.Fatalf("%v holds a pointer", typ)
	}
	if size := unsafe.Sizeof(stored{}); size > 8 {
		t.Fatalf("stored is %d bytes, want at most 8", size)
	}
}

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}
