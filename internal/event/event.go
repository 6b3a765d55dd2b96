// Package event defines the typed log records every subsystem emits. The
// measurement pipeline (internal/analysis) computes the paper's tables and
// figures exclusively from these records, mirroring how the original study
// was computed from Google's system logs.
//
// Records carry an Actor ground-truth field stating who actually performed
// the action. The simulator knows this; the *detectors* must not use it
// (they operate on observable fields only), while dataset curation uses it
// the way the paper used manual review — as a high-precision labeling step.
package event

import (
	"net/netip"
	"time"

	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
)

// Kind names a record type. Retention policies and dataset extractors
// select records by kind.
type Kind string

// All record kinds.
const (
	KindLogin             Kind = "auth.login"
	KindPasswordChanged   Kind = "auth.password_changed"
	KindRecoveryChanged   Kind = "auth.recovery_changed"
	KindTwoSVEnrolled     Kind = "auth.twosv_enrolled"
	KindMessageSent       Kind = "mail.sent"
	KindSearch            Kind = "mail.search"
	KindFolderOpened      Kind = "mail.folder_opened"
	KindContactsViewed    Kind = "mail.contacts_viewed"
	KindFilterCreated     Kind = "mail.filter_created"
	KindReplyToSet        Kind = "mail.replyto_set"
	KindMassDeletion      Kind = "mail.mass_deletion"
	KindSpamReported      Kind = "mail.spam_reported"
	KindPageCreated       Kind = "phish.page_created"
	KindPageHit           Kind = "phish.page_hit"
	KindPageDetected      Kind = "phish.page_detected"
	KindPageTakedown      Kind = "phish.page_takedown"
	KindLureSent          Kind = "phish.lure_sent"
	KindCredentialPhished Kind = "phish.credential_phished"
	KindHijackStarted     Kind = "hijack.started"
	KindHijackAssessed    Kind = "hijack.assessed"
	KindHijackEnded       Kind = "hijack.ended"
	KindScamReply         Kind = "scam.reply"
	KindMoneyWired        Kind = "scam.money_wired"
	KindNotificationSent  Kind = "recovery.notification"
	KindClaimFiled        Kind = "recovery.claim_filed"
	KindClaimAttempt      Kind = "recovery.claim_attempt"
	KindClaimResolved     Kind = "recovery.claim_resolved"
	KindRemission         Kind = "recovery.remission"
)

// Actor states who actually performed an action (simulation ground truth).
type Actor string

// Actors.
const (
	ActorOwner    Actor = "owner"
	ActorHijacker Actor = "hijacker"
	ActorSystem   Actor = "system"
)

// Event is one log record.
type Event interface {
	When() time.Time
	EventKind() Kind
}

// Base carries the timestamp shared by all records.
type Base struct {
	Time time.Time
}

// When returns the record timestamp.
func (b Base) When() time.Time { return b.Time }

// SessionID identifies one logged-in session.
type SessionID int64

// LoginOutcome is the result of a login attempt.
type LoginOutcome string

// Login outcomes.
const (
	LoginSuccess         LoginOutcome = "success"
	LoginWrongPassword   LoginOutcome = "wrong_password"
	LoginChallengeFailed LoginOutcome = "challenge_failed"
	LoginBlocked         LoginOutcome = "blocked"
)

// Login records one login attempt, successful or not.
type Login struct {
	Base
	Account    identity.AccountID
	IP         netip.Addr
	DeviceID   string
	PasswordOK bool
	Outcome    LoginOutcome
	Challenged bool
	RiskScore  float64
	Session    SessionID // non-zero on success
	Actor      Actor
	// Archetype is ground truth for hijacker attempts: the playbook
	// archetype behind the attempt ("manual", "smashgrab", ...). Empty for
	// owner traffic and for dumps written before archetype tagging —
	// detectors must not read it; the per-archetype scorecard does.
	Archetype string `json:",omitempty"`
}

// EventKind implements Event.
func (Login) EventKind() Kind { return KindLogin }

// PasswordChanged records a password change.
type PasswordChanged struct {
	Base
	Account identity.AccountID
	Session SessionID
	Actor   Actor
}

// EventKind implements Event.
func (PasswordChanged) EventKind() Kind { return KindPasswordChanged }

// RecoveryChanged records a change to recovery options (secondary email,
// phone, or secret question).
type RecoveryChanged struct {
	Base
	Account identity.AccountID
	What    string // "phone" | "email" | "question"
	Session SessionID
	Actor   Actor
}

// EventKind implements Event.
func (RecoveryChanged) EventKind() Kind { return KindRecoveryChanged }

// TwoSVEnrolled records 2-step-verification enrollment with a phone.
type TwoSVEnrolled struct {
	Base
	Account identity.AccountID
	Phone   geo.Phone
	Session SessionID
	Actor   Actor
}

// EventKind implements Event.
func (TwoSVEnrolled) EventKind() Kind { return KindTwoSVEnrolled }

// MessageClass is the ground-truth class of a sent message.
type MessageClass string

// Message classes.
const (
	ClassOrganic      MessageClass = "organic"
	ClassScam         MessageClass = "scam"
	ClassPhish        MessageClass = "phish"
	ClassLure         MessageClass = "lure" // phishing-campaign lure from external infra
	ClassNotification MessageClass = "notification"
	ClassSpamBulk     MessageClass = "bulk_spam" // ordinary spam noise
)

// MessageID identifies a sent message.
type MessageID int64

// MessageSent records an outbound message from a provider account (or, for
// ClassLure/ClassSpamBulk, from external infrastructure).
type MessageSent struct {
	Base
	ID         MessageID
	From       identity.Address
	FromAcct   identity.AccountID // None when external
	Recipients []identity.Address
	Class      MessageClass
	Customized bool // §5.3: small-recipient scams tend to be customized
	ReplyTo    identity.Address
	PageID     PageID // for lures/phish: the phishing page linked, 0 = ask-reply
	Session    SessionID
	Actor      Actor
}

// EventKind implements Event.
func (MessageSent) EventKind() Kind { return KindMessageSent }

// Search records a mailbox search.
type Search struct {
	Base
	Account identity.AccountID
	Query   string
	Session SessionID
	Actor   Actor
}

// EventKind implements Event.
func (Search) EventKind() Kind { return KindSearch }

// Folder names a mailbox system folder.
type Folder string

// System folders.
const (
	FolderInbox   Folder = "inbox"
	FolderStarred Folder = "starred"
	FolderDrafts  Folder = "drafts"
	FolderSent    Folder = "sent"
	FolderTrash   Folder = "trash"
	FolderSpam    Folder = "spam"
)

// FolderOpened records opening a mailbox folder.
type FolderOpened struct {
	Base
	Account identity.AccountID
	Folder  Folder
	Session SessionID
	Actor   Actor
}

// EventKind implements Event.
func (FolderOpened) EventKind() Kind { return KindFolderOpened }

// ContactsViewed records viewing the contact list.
type ContactsViewed struct {
	Base
	Account identity.AccountID
	Session SessionID
	Actor   Actor
}

// EventKind implements Event.
func (ContactsViewed) EventKind() Kind { return KindContactsViewed }

// FilterCreated records creation of a mail filter (the hijacker retention
// tactic redirects incoming mail to Trash/Spam or forwards it out).
type FilterCreated struct {
	Base
	Account   identity.AccountID
	ForwardTo identity.Address // empty when the action is a trash/spam rule
	Session   SessionID
	Actor     Actor
}

// EventKind implements Event.
func (FilterCreated) EventKind() Kind { return KindFilterCreated }

// ReplyToSet records configuring an outbound Reply-To address.
type ReplyToSet struct {
	Base
	Account identity.AccountID
	Addr    identity.Address
	Session SessionID
	Actor   Actor
}

// EventKind implements Event.
func (ReplyToSet) EventKind() Kind { return KindReplyToSet }

// MassDeletion records bulk deletion of messages/contacts.
type MassDeletion struct {
	Base
	Account identity.AccountID
	Deleted int
	Session SessionID
	Actor   Actor
}

// EventKind implements Event.
func (MassDeletion) EventKind() Kind { return KindMassDeletion }

// SpamReported records a recipient flagging a message as spam/phishing.
type SpamReported struct {
	Base
	Reporter identity.AccountID
	Message  MessageID
	From     identity.Address
	FromAcct identity.AccountID
	Class    MessageClass // ground truth of the reported message
}

// EventKind implements Event.
func (SpamReported) EventKind() Kind { return KindSpamReported }

// PageID identifies a phishing page.
type PageID int64

// TargetKind is the type of credential a phishing artifact solicits
// (Table 2's rows).
type TargetKind string

// Target kinds.
const (
	TargetMail     TargetKind = "mail"
	TargetBank     TargetKind = "bank"
	TargetAppStore TargetKind = "appstore"
	TargetSocial   TargetKind = "social"
	TargetOther    TargetKind = "other"
)

// PageCreated records a phishing page going live.
type PageCreated struct {
	Base
	Page    PageID
	Target  TargetKind
	Quality float64 // kit quality in [0,1]; drives conversion (Fig. 5)
	OnForms bool    // hosted on the provider's Forms product (Dataset 3)
	// Targeted marks spear-phishing pages fed by an explicit victim list
	// (hijacker contact campaigns). They are mailed directly to victims
	// and not found by web indexing, so Dataset 2 excludes them.
	Targeted bool
}

// EventKind implements Event.
func (PageCreated) EventKind() Kind { return KindPageCreated }

// PageHit records one HTTP request to a phishing page.
type PageHit struct {
	Base
	Page     PageID
	Method   string // "GET" | "POST"
	Referrer string // "" for blank (mail clients / webmail new tabs)
	Victim   identity.Address
	IP       netip.Addr
}

// EventKind implements Event.
func (PageHit) EventKind() Kind { return KindPageHit }

// PageDetected records the anti-phishing pipeline flagging a page.
type PageDetected struct {
	Base
	Page PageID
}

// EventKind implements Event.
func (PageDetected) EventKind() Kind { return KindPageDetected }

// PageTakedown records a page being disabled.
type PageTakedown struct {
	Base
	Page PageID
}

// EventKind implements Event.
func (PageTakedown) EventKind() Kind { return KindPageTakedown }

// LureSent records a phishing lure email delivered to a victim (external
// campaign traffic; hijacked-account phishing is a MessageSent with
// ClassPhish).
type LureSent struct {
	Base
	Campaign int64
	Page     PageID // 0 when the lure asks for a credential reply instead
	Victim   identity.Address
	Target   TargetKind
	HasURL   bool
	Reported bool // victim reported it (feeds Dataset 1's noisy source)
}

// EventKind implements Event.
func (LureSent) EventKind() Kind { return KindLureSent }

// CredentialPhished records a provider credential captured by a phishing
// page — the hand-off from the phishing substrate to hijacker crews.
type CredentialPhished struct {
	Base
	Account identity.AccountID
	Page    PageID
	Decoy   bool // injected by the study's decoy experiment (Dataset 4)
}

// EventKind implements Event.
func (CredentialPhished) EventKind() Kind { return KindCredentialPhished }

// HijackStarted marks ground truth: a hijacker crew began working an
// account.
type HijackStarted struct {
	Base
	Account identity.AccountID
	Crew    string
	Session SessionID
	// Archetype is the attacker playbook behind the hijack (empty in
	// pre-archetype dumps).
	Archetype string `json:",omitempty"`
}

// EventKind implements Event.
func (HijackStarted) EventKind() Kind { return KindHijackStarted }

// HijackAssessed marks the end of the value-assessment phase (§5.2).
type HijackAssessed struct {
	Base
	Account   identity.AccountID
	Crew      string
	Duration  time.Duration
	Exploited bool   // false = deemed not valuable, abandoned
	Archetype string `json:",omitempty"`
}

// EventKind implements Event.
func (HijackAssessed) EventKind() Kind { return KindHijackAssessed }

// HijackEnded marks the crew finishing with an account.
type HijackEnded struct {
	Base
	Account   identity.AccountID
	Crew      string
	LockedOut bool   // the owner was locked out (password changed)
	Archetype string `json:",omitempty"`
}

// EventKind implements Event.
func (HijackEnded) EventKind() Kind { return KindHijackEnded }

// ScamReply records a plea recipient responding to a scam message — the
// first step of the two-round Mugged-in-City flow (§5.4 notes "even the
// shortest process may take one or two days").
type ScamReply struct {
	Base
	// VictimAccount is the hijacked account the scam impersonated.
	VictimAccount identity.AccountID
	Recipient     identity.AccountID
	// ReachedHijacker is true when the reply got to the criminal — via a
	// doppelganger Reply-To, a forwarding filter, or retained account
	// access — rather than dying in a recovered mailbox.
	ReachedHijacker bool
	Via             string // "replyto" | "filter" | "access" | "lost"
}

// EventKind implements Event.
func (ScamReply) EventKind() Kind { return KindScamReply }

// MoneyWired records a completed scam payment (Western Union-style
// transfer, §5.3) — the monetization event the whole hijack exists for.
type MoneyWired struct {
	Base
	VictimAccount identity.AccountID
	Recipient     identity.AccountID
	Crew          string
	Amount        float64 // USD
}

// EventKind implements Event.
func (MoneyWired) EventKind() Kind { return KindMoneyWired }

// NotificationChannel is an out-of-band user notification channel.
type NotificationChannel string

// Notification channels.
const (
	ChannelSMS   NotificationChannel = "sms"
	ChannelEmail NotificationChannel = "email"
)

// NotificationSent records a proactive security notification (§8.2).
type NotificationSent struct {
	Base
	Account identity.AccountID
	Channel NotificationChannel
	Reason  string
}

// EventKind implements Event.
func (NotificationSent) EventKind() Kind { return KindNotificationSent }

// ClaimFiled records someone starting account recovery — usually the
// victim, but §6.3's impostor risk is real: hijackers file fraudulent
// claims hoping to pass the knowledge fallback.
type ClaimFiled struct {
	Base
	Account identity.AccountID
	// Trigger says what alerted the victim ("notification", "lockout",
	// "noticed", "suspended") or marks an impostor attempt ("fraud").
	Trigger string
	// HijackedAt is the ground-truth hijack time backing latency analysis.
	HijackedAt time.Time
	// Actor is the ground-truth claimant.
	Actor Actor
}

// EventKind implements Event.
func (ClaimFiled) EventKind() Kind { return KindClaimFiled }

// RecoveryMethod is a recovery verification method (Figure 10's rows).
type RecoveryMethod string

// Recovery methods.
const (
	MethodSMS      RecoveryMethod = "sms"
	MethodEmail    RecoveryMethod = "email"
	MethodFallback RecoveryMethod = "fallback"
)

// ClaimAttempt records one verification attempt within a claim.
type ClaimAttempt struct {
	Base
	Account identity.AccountID
	Method  RecoveryMethod
	Success bool
	Reason  string // failure reason: "bounce", "recycled", "gateway", ...
	// Actor is the ground-truth claimant.
	Actor Actor
}

// EventKind implements Event.
func (ClaimAttempt) EventKind() Kind { return KindClaimAttempt }

// ClaimResolved records the claim outcome.
type ClaimResolved struct {
	Base
	Account    identity.AccountID
	Success    bool
	Method     RecoveryMethod // the method that succeeded (if any)
	HijackedAt time.Time
	// FlaggedAt is when risk analysis first flagged the account, the start
	// point of the paper's recovery-latency measurement (§6.2).
	FlaggedAt time.Time
	// Actor is the ground-truth claimant.
	Actor Actor
}

// EventKind implements Event.
func (ClaimResolved) EventKind() Kind { return KindClaimResolved }

// Remission records post-recovery cleanup (§6.4).
type Remission struct {
	Base
	Account          identity.AccountID
	RestoredMessages int
	ClearedSettings  bool
}

// EventKind implements Event.
func (Remission) EventKind() Kind { return KindRemission }
