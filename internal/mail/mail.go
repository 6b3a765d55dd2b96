// Package mail implements the provider's mail service: mailboxes with
// system folders, message delivery across the simulated user base,
// full-text search, filters/forwarding, Reply-To configuration, contact
// lists, spam reporting, and mass deletion with restorable backups.
//
// The mail service is where manual hijackers spend their time: the paper
// shows they assess an account's value by searching the mailbox for
// financial terms and opening significant folders (§5.2, Table 3), exploit
// it by mailing the victim's contacts (§5.3), and hide by creating filters
// and Reply-To redirections (§5.4). Every one of those actions is an event
// in the log store, which is what the measurement pipeline consumes.
package mail

import (
	"strings"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
	"manualhijack/internal/simtime"
)

// Message is one delivered message as the delivery hook sees it.
type Message struct {
	ID      event.MessageID
	From    identity.Address
	Class   event.MessageClass
	ReplyTo identity.Address
	// Forwarded marks messages that a hijacker-created filter diverted.
	Forwarded bool
}

// stored is what a mailbox keeps of a message. Content is modeled as a
// set of keyword phrases; search matches against them. Starred is a flag,
// not a folder, as in real mail systems.
type stored struct {
	keywords []string
	folder   event.Folder
	starred  bool
}

// Filter is a mailbox rule. ForwardTo != "" forwards matching incoming
// mail; ToTrash diverts it to Trash (the hide-in-the-shadows tactic).
type Filter struct {
	ForwardTo identity.Address
	ToTrash   bool
	CreatedBy event.Actor
}

// Mailbox is one account's mail state.
type Mailbox struct {
	msgs      []stored // live messages in delivery order
	Filters   []Filter
	ReplyTo   identity.Address
	replyToBy event.Actor
	// backup holds messages removed by MassDelete so Restore can undo the
	// hijacker's deletion (the defense added between 2011 and 2012).
	backup []stored
	// deletedContacts holds the contact list if a hijacker wiped it.
	deletedContacts []identity.Address
	contactsWiped   bool
}

// Len returns the number of live messages.
func (mb *Mailbox) Len() int { return len(mb.msgs) }

// CountMatching returns how many live messages match the query. Besides
// plain keyword-phrase matching, two operators from the hijackers'
// observed search terms (Table 3) are supported:
//
//	is:starred                     — starred messages
//	filename:(jpg or jpeg or png)  — any of the listed attachment keywords
func (mb *Mailbox) CountMatching(query string) int {
	match := parseQuery(query)
	n := 0
	for i := range mb.msgs {
		if match(&mb.msgs[i]) {
			n++
		}
	}
	return n
}

// parseQuery compiles a search query into a message predicate.
func parseQuery(query string) func(*stored) bool {
	q := strings.ToLower(strings.TrimSpace(query))
	if q == "is:starred" {
		return func(m *stored) bool { return m.starred }
	}
	if rest, ok := strings.CutPrefix(q, "filename:"); ok {
		rest = strings.Trim(rest, "() ")
		var terms []string
		for _, part := range strings.Split(rest, " or ") {
			if part = strings.TrimSpace(part); part != "" {
				terms = append(terms, part)
			}
		}
		return func(m *stored) bool {
			for _, t := range terms {
				if keywordContains(m, t) {
					return true
				}
			}
			return false
		}
	}
	return func(m *stored) bool { return keywordContains(m, q) }
}

func keywordContains(m *stored, q string) bool {
	for _, k := range m.keywords {
		if strings.Contains(strings.ToLower(k), q) {
			return true
		}
	}
	return false
}

// InFolder returns the number of live messages in a folder; for
// FolderStarred, the number of starred messages in any folder.
func (mb *Mailbox) InFolder(f event.Folder) int {
	n := 0
	for _, m := range mb.msgs {
		if f == event.FolderStarred && m.starred || f != event.FolderStarred && m.folder == f {
			n++
		}
	}
	return n
}

// HasForwardingFilter reports whether any filter forwards mail out.
func (mb *Mailbox) HasForwardingFilter() bool {
	for _, f := range mb.Filters {
		if f.ForwardTo != "" {
			return true
		}
	}
	return false
}

// Service is the mail system shared by the whole world.
type Service struct {
	dir   *identity.Directory
	clock *simtime.Clock
	log   *logstore.Store

	boxes   map[identity.AccountID]*Mailbox
	nextMsg event.MessageID

	// deliveryHook, when set, observes every message delivered to a
	// provider mailbox (the victim agents react to scams/phish this way).
	deliveryHook func(rcpt identity.AccountID, m Message)

	// actionHook, when set, observes the record of every in-session
	// mailbox action — the live feed for online behavioral risk analysis
	// (§8.2).
	actionHook func(acct identity.AccountID, e event.Event)
}

// SetDeliveryHook installs the per-delivery observer.
func (s *Service) SetDeliveryHook(fn func(rcpt identity.AccountID, m Message)) {
	s.deliveryHook = fn
}

// SetActionHook installs the in-session action observer.
func (s *Service) SetActionHook(fn func(acct identity.AccountID, e event.Event)) {
	s.actionHook = fn
}

// record logs an action's record and, inside a session, feeds it to the
// action hook.
func (s *Service) record(acct identity.AccountID, sess event.SessionID, e event.Event) {
	s.log.Append(e)
	if s.actionHook != nil && sess != 0 {
		s.actionHook(acct, e)
	}
}

// NewService creates the mail service with empty mailboxes for every
// account in dir.
func NewService(dir *identity.Directory, clock *simtime.Clock, log *logstore.Store) *Service {
	s := &Service{
		dir:   dir,
		clock: clock,
		log:   log,
		boxes: make(map[identity.AccountID]*Mailbox, dir.Len()),
	}
	dir.All(func(a *identity.Account) {
		s.boxes[a.ID] = &Mailbox{}
	})
	return s
}

// Mailbox returns an account's mailbox (nil for unknown accounts).
func (s *Service) Mailbox(id identity.AccountID) *Mailbox { return s.boxes[id] }

// Keyword lexicons used to seed mailbox history. Finance keywords are what
// make an account "valuable" to a manual hijacker (§5.2).
var (
	FinanceKeywords = []string{
		"wire transfer", "bank transfer", "bank", "transferencia", "investment",
		"banco", "账单", "statement", "invoice", "tax", "salary", "signature",
	}
	CredentialKeywords = []string{
		"password", "amazon", "dropbox", "paypal", "match", "ftp", "facebook",
		"skype", "username", "account",
	}
	ContentKeywords = []string{
		"jpg", "mov", "mp4", "3gp", "passport", "sex", "zip", "photo",
		"vacation", "family",
	}
	FillerKeywords = []string{
		"meeting", "lunch", "project", "newsletter", "receipt", "travel",
		"schedule", "party", "homework", "weekend",
	}
)

// SeedConfig controls historical mailbox generation.
type SeedConfig struct {
	// MeanMessages is the mean historical mailbox size.
	MeanMessages int
	// FinanceAccountRate is the fraction of accounts whose history contains
	// financial content (these are the accounts hijackers deem valuable).
	FinanceAccountRate float64
	// StarRate, DraftRate are per-message odds of the flag/folder.
	StarRate  float64
	DraftRate float64
}

// DefaultSeedConfig returns the study's mailbox-history defaults.
func DefaultSeedConfig() SeedConfig {
	return SeedConfig{
		MeanMessages:       60,
		FinanceAccountRate: 0.45,
		StarRate:           0.06,
		DraftRate:          0.04,
	}
}

// Seed populates every mailbox with pre-study message history. It does not
// log events (history predates the measurement window). It still draws a
// sender and a receipt time for each message, and allocates its ID, so
// the random stream and the IDs of later mail stay those of a history
// that kept them.
func (s *Service) Seed(r *randx.Rand, cfg SeedConfig) {
	gen := r.Fork("mailseed")
	s.dir.All(func(a *identity.Account) {
		mb := s.boxes[a.ID]
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
				randx.Pick(gen, a.Contacts) // sender
			}
			folder := event.FolderInbox
			if gen.Bool(cfg.DraftRate) {
				folder = event.FolderDrafts
			} else if gen.Bool(0.3) {
				folder = event.FolderSent
			}
			s.nextMsg++
			mb.msgs = append(mb.msgs, stored{keywords: kw, folder: folder, starred: gen.Bool(cfg.StarRate)})
			gen.ExpDuration(90 * 24 * time.Hour) // receipt time
		}
	})
}

// SendReq describes an outbound message.
type SendReq struct {
	FromAcct   identity.AccountID // None for external senders (lures, spam)
	FromAddr   identity.Address
	Recipients []identity.Address
	Keywords   []string
	Class      event.MessageClass
	Customized bool
	PageID     event.PageID
	Session    event.SessionID
	Actor      event.Actor
}

// Send delivers a message to every provider recipient and logs it. The
// sender's configured Reply-To (a hijacker retention tactic) is stamped on
// the message. Returns the message ID.
func (s *Service) Send(req SendReq) event.MessageID {
	s.nextMsg++
	id := s.nextMsg

	var replyTo identity.Address
	if mb := s.boxes[req.FromAcct]; mb != nil {
		replyTo = mb.ReplyTo
		// Record a copy in the sender's Sent folder.
		mb.msgs = append(mb.msgs, stored{keywords: req.Keywords, folder: event.FolderSent})
	}

	for _, rcpt := range req.Recipients {
		rid := s.dir.Lookup(rcpt)
		if rid == identity.None {
			continue // external recipient: delivery is out of scope
		}
		mb := s.boxes[rid]
		s.nextMsg++
		m := Message{ID: s.nextMsg, From: req.FromAddr, Class: req.Class, ReplyTo: replyTo}
		folder := event.FolderInbox
		// Apply the recipient's filters (hijacker rules diverting or
		// forwarding incoming mail).
		for _, f := range mb.Filters {
			if f.ToTrash {
				folder = event.FolderTrash
			}
			if f.ForwardTo != "" {
				m.Forwarded = true
			}
		}
		mb.msgs = append(mb.msgs, stored{keywords: req.Keywords, folder: folder})
		if s.deliveryHook != nil {
			s.deliveryHook(rid, m)
		}
	}

	s.record(req.FromAcct, req.Session, event.MessageSent{
		Base:       event.Base{Time: s.clock.Now()},
		ID:         id,
		From:       req.FromAddr,
		FromAcct:   req.FromAcct,
		Recipients: append([]identity.Address(nil), req.Recipients...),
		Class:      req.Class,
		Customized: req.Customized,
		ReplyTo:    replyTo,
		PageID:     req.PageID,
		Session:    req.Session,
		Actor:      req.Actor,
	})
	return id
}

// Search logs a mailbox search. Mailbox.CountMatching counts what it
// finds.
func (s *Service) Search(acct identity.AccountID, query string, sess event.SessionID, actor event.Actor) {
	if s.boxes[acct] == nil {
		return
	}
	s.record(acct, sess, event.Search{
		Base: event.Base{Time: s.clock.Now()}, Account: acct, Query: query,
		Session: sess, Actor: actor,
	})
}

// OpenFolder logs a folder view. Mailbox.InFolder counts what it shows.
func (s *Service) OpenFolder(acct identity.AccountID, f event.Folder, sess event.SessionID, actor event.Actor) {
	if s.boxes[acct] == nil {
		return
	}
	s.record(acct, sess, event.FolderOpened{
		Base: event.Base{Time: s.clock.Now()}, Account: acct, Folder: f,
		Session: sess, Actor: actor,
	})
}

// ViewContacts logs a contact-list view and returns the contacts.
func (s *Service) ViewContacts(acct identity.AccountID, sess event.SessionID, actor event.Actor) []identity.Address {
	a := s.dir.Get(acct)
	mb := s.boxes[acct]
	if a == nil || mb == nil {
		return nil
	}
	s.record(acct, sess, event.ContactsViewed{
		Base: event.Base{Time: s.clock.Now()}, Account: acct,
		Session: sess, Actor: actor,
	})
	if mb.contactsWiped {
		return nil
	}
	return a.Contacts
}

// CreateFilter installs a mailbox rule and logs it.
func (s *Service) CreateFilter(acct identity.AccountID, f Filter, sess event.SessionID, actor event.Actor) {
	mb := s.boxes[acct]
	if mb == nil {
		return
	}
	f.CreatedBy = actor
	mb.Filters = append(mb.Filters, f)
	s.record(acct, sess, event.FilterCreated{
		Base: event.Base{Time: s.clock.Now()}, Account: acct,
		ForwardTo: f.ForwardTo, Session: sess, Actor: actor,
	})
}

// SetReplyTo configures the outbound Reply-To address and logs it.
func (s *Service) SetReplyTo(acct identity.AccountID, addr identity.Address, sess event.SessionID, actor event.Actor) {
	mb := s.boxes[acct]
	if mb == nil {
		return
	}
	mb.ReplyTo = addr
	mb.replyToBy = actor
	s.record(acct, sess, event.ReplyToSet{
		Base: event.Base{Time: s.clock.Now()}, Account: acct, Addr: addr,
		Session: sess, Actor: actor,
	})
}

// MassDelete removes every message and the contact list, keeping a backup
// for Restore. Returns the number of messages deleted.
func (s *Service) MassDelete(acct identity.AccountID, sess event.SessionID, actor event.Actor) int {
	mb := s.boxes[acct]
	a := s.dir.Get(acct)
	if mb == nil || a == nil {
		return 0
	}
	n := len(mb.msgs)
	mb.backup, mb.msgs = append(mb.backup, mb.msgs...), nil
	if !mb.contactsWiped {
		mb.deletedContacts = a.Contacts
		a.Contacts = nil
		mb.contactsWiped = true
	}
	s.record(acct, sess, event.MassDeletion{
		Base: event.Base{Time: s.clock.Now()}, Account: acct, Deleted: n,
		Session: sess, Actor: actor,
	})
	return n
}

// Restore undoes a MassDelete and clears hijacker-created settings
// (filters, Reply-To). It is the remission step added to the recovery flow
// between the 2011 and 2012 observation windows (§5.4, §6.4). It returns
// the number of restored messages and whether settings were cleared.
func (s *Service) Restore(acct identity.AccountID) (restored int, cleared bool) {
	mb := s.boxes[acct]
	a := s.dir.Get(acct)
	if mb == nil || a == nil {
		return 0, false
	}
	restored = len(mb.backup)
	mb.msgs, mb.backup = append(mb.msgs, mb.backup...), nil
	if mb.contactsWiped {
		a.Contacts = mb.deletedContacts
		mb.deletedContacts = nil
		mb.contactsWiped = false
	}
	// Clear hijacker-created settings.
	var keep []Filter
	for _, f := range mb.Filters {
		if f.CreatedBy != event.ActorHijacker {
			keep = append(keep, f)
		} else {
			cleared = true
		}
	}
	mb.Filters = keep
	if mb.replyToBy == event.ActorHijacker {
		mb.ReplyTo = ""
		mb.replyToBy = ""
		cleared = true
	}
	return restored, cleared
}

// ReportSpam logs a recipient flagging a message.
func (s *Service) ReportSpam(reporter identity.AccountID, msgID event.MessageID, from identity.Address, fromAcct identity.AccountID, class event.MessageClass) {
	s.log.Append(event.SpamReported{
		Base: event.Base{Time: s.clock.Now()}, Reporter: reporter,
		Message: msgID, From: from, FromAcct: fromAcct, Class: class,
	})
}

// FinancialValue scores how attractive a mailbox is to a manual hijacker:
// the number of messages carrying financial keywords. The hijacker agent
// uses its own searches (not this method) to decide; only tests read this
// ground truth.
func (s *Service) FinancialValue(acct identity.AccountID) int {
	mb := s.boxes[acct]
	if mb == nil {
		return 0
	}
	total := 0
	for _, k := range FinanceKeywords {
		total += mb.CountMatching(k)
	}
	return total
}
