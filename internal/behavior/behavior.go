// Package behavior implements post-login behavioral risk analysis — the
// detector §5.2 proposes: "an approach that models manual hijacker initial
// activity on hijacked accounts and compares a logged-in user's activity to
// this model in order to flag those that exhibit excessive similarity to
// hijacker activity."
//
// The paper also warns (§8.2) that behavioral detection is a last resort:
// by the time it fires the hijacker has already seen data. The detector
// therefore records *when* in the session it fired, so the evaluation can
// report exposure time alongside precision/recall, and the
// window-ablation benchmark can quantify the fire-fast/fire-accurately
// trade-off.
package behavior

import (
	"strings"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/mail"
)

// ActionType is one kind of in-session action.
type ActionType string

// Action types observed by the detector.
const (
	ActionSearch       ActionType = "search"
	ActionFolderOpen   ActionType = "folder_open"
	ActionContactsView ActionType = "contacts_view"
	ActionFilterCreate ActionType = "filter_create"
	ActionReplyToSet   ActionType = "replyto_set"
	ActionSend         ActionType = "send"
	ActionMassDelete   ActionType = "mass_delete"
)

// Action is one observable in-session action.
type Action struct {
	Type       ActionType
	Query      string       // for ActionSearch
	Folder     event.Folder // for ActionFolderOpen
	Recipients int          // for ActionSend
	ForwardOut bool         // for ActionFilterCreate
	At         time.Time
}

// ActionOf maps a logged mailbox record to the in-session action it
// records, with its session. ok is false for any other record and for a
// record made outside a session.
func ActionOf(e event.Event) (sess event.SessionID, a Action, ok bool) {
	switch ev := e.(type) {
	case event.Search:
		sess, a = ev.Session, Action{Type: ActionSearch, Query: ev.Query}
	case event.FolderOpened:
		sess, a = ev.Session, Action{Type: ActionFolderOpen, Folder: ev.Folder}
	case event.ContactsViewed:
		sess, a = ev.Session, Action{Type: ActionContactsView}
	case event.FilterCreated:
		sess, a = ev.Session, Action{Type: ActionFilterCreate, ForwardOut: ev.ForwardTo != ""}
	case event.ReplyToSet:
		sess, a = ev.Session, Action{Type: ActionReplyToSet}
	case event.MessageSent:
		sess, a = ev.Session, Action{Type: ActionSend, Recipients: len(ev.Recipients)}
	case event.MassDeletion:
		sess, a = ev.Session, Action{Type: ActionMassDelete}
	default:
		return 0, Action{}, false
	}
	a.At = e.When()
	return sess, a, sess != 0
}

// Weights assigns playbook-similarity increments per action pattern. Each
// weight reflects how characteristic the pattern is of the manual-hijacker
// playbook relative to organic use.
type Weights struct {
	FinanceSearch    float64 // searching for financial keywords (Table 3)
	CredentialSearch float64
	SignificantOpen  float64 // opening Starred/Drafts right after login
	ContactsView     float64
	ForwardFilter    float64 // filter that forwards mail out
	ReplyToSet       float64
	MassSend         float64 // one message to many recipients
	MassDelete       float64
}

// DefaultWeights is the tuned model.
func DefaultWeights() Weights {
	return Weights{
		FinanceSearch:    0.28,
		CredentialSearch: 0.18,
		SignificantOpen:  0.10,
		ContactsView:     0.12,
		ForwardFilter:    0.35,
		ReplyToSet:       0.40,
		MassSend:         0.40,
		MassDelete:       0.45,
	}
}

// Config tunes the detector.
type Config struct {
	Weights Weights
	// Threshold is the cumulative score at which a session is flagged.
	Threshold float64
	// MassSendRecipients is the distinct-recipient count that makes one
	// send "mass" (the paper: recipients jumped 630% on hijack days).
	MassSendRecipients int
	// Window limits how much of the session the detector watches; actions
	// after the window no longer change the score. Zero = unlimited. The
	// ablation benchmark sweeps this.
	Window time.Duration
}

// DefaultConfig returns the production operating point.
func DefaultConfig() Config {
	return Config{
		Weights:            DefaultWeights(),
		Threshold:          0.75,
		MassSendRecipients: 20,
	}
}

// Verdict reports the state of a session after an observation.
type Verdict struct {
	Score      float64
	Flagged    bool // true the moment the threshold is crossed
	FlaggedNow bool // true only on the crossing observation
}

// Detector scores live sessions against the hijacker playbook.
type Detector struct {
	cfg      Config
	sessions map[event.SessionID]*sessionState
}

type sessionState struct {
	start     time.Time
	score     float64
	flaggedAt time.Time
	flagged   bool
	searches  int
}

// NewDetector returns a detector with the given configuration.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg, sessions: make(map[event.SessionID]*sessionState)}
}

// Begin registers a new session at its login time.
func (d *Detector) Begin(sess event.SessionID, at time.Time) {
	d.sessions[sess] = &sessionState{start: at}
}

// Observe scores one action. Unknown sessions are ignored (zero Verdict):
// the detector only watches sessions it saw begin.
func (d *Detector) Observe(sess event.SessionID, a Action) Verdict {
	st := d.sessions[sess]
	if st == nil {
		return Verdict{}
	}
	if d.cfg.Window > 0 && a.At.Sub(st.start) > d.cfg.Window {
		return Verdict{Score: st.score, Flagged: st.flagged}
	}
	w := d.cfg.Weights
	switch a.Type {
	case ActionSearch:
		st.searches++
		switch {
		case matchesAny(a.Query, mail.FinanceKeywords):
			st.score += w.FinanceSearch
		case matchesAny(a.Query, mail.CredentialKeywords):
			st.score += w.CredentialSearch
		}
	case ActionFolderOpen:
		if a.Folder == event.FolderStarred || a.Folder == event.FolderDrafts {
			st.score += w.SignificantOpen
		}
	case ActionContactsView:
		st.score += w.ContactsView
	case ActionFilterCreate:
		if a.ForwardOut {
			st.score += w.ForwardFilter
		} else {
			st.score += w.ForwardFilter / 2
		}
	case ActionReplyToSet:
		st.score += w.ReplyToSet
	case ActionSend:
		if a.Recipients >= d.cfg.MassSendRecipients {
			st.score += w.MassSend
		}
	case ActionMassDelete:
		st.score += w.MassDelete
	}

	v := Verdict{Score: st.score, Flagged: st.flagged}
	if !st.flagged && st.score >= d.cfg.Threshold {
		st.flagged = true
		st.flaggedAt = a.At
		v.Flagged = true
		v.FlaggedNow = true
	}
	return v
}

// FlaggedAt returns when the session was flagged, if it was.
func (d *Detector) FlaggedAt(sess event.SessionID) (time.Time, bool) {
	st := d.sessions[sess]
	if st == nil || !st.flagged {
		return time.Time{}, false
	}
	return st.flaggedAt, true
}

// Score returns a session's current similarity score.
func (d *Detector) Score(sess event.SessionID) float64 {
	if st := d.sessions[sess]; st != nil {
		return st.score
	}
	return 0
}

// ExposureTime returns how long the session ran before being flagged — the
// data-exposure window §8.2 worries about.
func (d *Detector) ExposureTime(sess event.SessionID) (time.Duration, bool) {
	st := d.sessions[sess]
	if st == nil || !st.flagged {
		return 0, false
	}
	return st.flaggedAt.Sub(st.start), true
}

func matchesAny(query string, lexicon []string) bool {
	q := strings.ToLower(query)
	for _, k := range lexicon {
		lk := strings.ToLower(k)
		if strings.Contains(q, lk) || strings.Contains(lk, q) && q != "" {
			return true
		}
	}
	return false
}
