package event

// Hand-rolled wire codec for the 28 record kinds on the NDJSON hot path
// (segment spill + dump encode, segment + dump decode). AppendLine and
// DecodeLineFast are exact mirrors of the encoding/json envelope layer in
// internal/logstore: same field order (struct declaration order, embedded
// Base.Time first), same escaping, same zero-value conventions. Both
// return ok=false rather than guess — the caller falls back to
// encoding/json, so foreign or legacy files keep their exact old
// behavior. Adding a field to an event struct without updating its case
// here fails TestFastCodecMatchesEncodingJSON, not production decode.

import (
	"strconv"
	"time"

	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/jsonx"
)

// timeOK reports whether t is in the year range time.Time.MarshalJSON
// accepts; out-of-range times fall back so the error surfaces identically.
func timeOK(t time.Time) bool {
	y := t.Year()
	return y >= 1 && y <= 9999
}

func appendInt(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// appendArchetype appends the trailing `,"Archetype":"…"` field that the
// json:",omitempty" tag produces only for tagged records; untagged
// records canonically omit it.
func appendArchetype(dst []byte, archetype string) []byte {
	if archetype == "" {
		return dst
	}
	dst = append(dst, `,"Archetype":`...)
	return jsonx.AppendString(dst, archetype)
}

// appendAddrs matches encoding/json's slice conventions: nil → null,
// empty → [].
func appendAddrs(dst []byte, xs []identity.Address) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, a := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonx.AppendString(dst, string(a))
	}
	return append(dst, ']')
}

// AppendLine appends the canonical NDJSON envelope line
// {"kind":"<kind>","data":{...}}\n for e. ok is false when e is not a
// registered value type or holds a value (non-finite float, out-of-range
// time) the fast path does not replicate; the caller must then use the
// encoding/json path.
func AppendLine(dst []byte, e Event) ([]byte, bool) {
	n := len(dst)
	dst, ok := appendLine(dst, e)
	if !ok {
		return dst[:n], false
	}
	return dst, true
}

func appendLine(dst []byte, e Event) ([]byte, bool) {
	switch v := e.(type) {
	case Login:
		if !timeOK(v.Time) || !jsonx.IsFinite(v.RiskScore) {
			return dst, false
		}
		dst = append(dst, `{"kind":"auth.login","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"IP":`...)
		dst = appendAddr(dst, v.IP)
		dst = append(dst, `,"DeviceID":`...)
		dst = jsonx.AppendString(dst, v.DeviceID)
		dst = append(dst, `,"PasswordOK":`...)
		dst = jsonx.AppendBool(dst, v.PasswordOK)
		dst = append(dst, `,"Outcome":`...)
		dst = jsonx.AppendString(dst, string(v.Outcome))
		dst = append(dst, `,"Challenged":`...)
		dst = jsonx.AppendBool(dst, v.Challenged)
		dst = append(dst, `,"RiskScore":`...)
		dst = jsonx.AppendFloat(dst, v.RiskScore)
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
		dst = appendArchetype(dst, v.Archetype)
	case PasswordChanged:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"auth.password_changed","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case RecoveryChanged:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"auth.recovery_changed","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"What":`...)
		dst = jsonx.AppendString(dst, v.What)
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case TwoSVEnrolled:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"auth.twosv_enrolled","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Phone":`...)
		dst = jsonx.AppendString(dst, string(v.Phone))
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case MessageSent:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"mail.sent","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"ID":`...)
		dst = appendInt(dst, int64(v.ID))
		dst = append(dst, `,"From":`...)
		dst = jsonx.AppendString(dst, string(v.From))
		dst = append(dst, `,"FromAcct":`...)
		dst = appendInt(dst, int64(v.FromAcct))
		dst = append(dst, `,"Recipients":`...)
		dst = appendAddrs(dst, v.Recipients)
		dst = append(dst, `,"Class":`...)
		dst = jsonx.AppendString(dst, string(v.Class))
		dst = append(dst, `,"Customized":`...)
		dst = jsonx.AppendBool(dst, v.Customized)
		dst = append(dst, `,"ReplyTo":`...)
		dst = jsonx.AppendString(dst, string(v.ReplyTo))
		dst = append(dst, `,"PageID":`...)
		dst = appendInt(dst, int64(v.PageID))
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case Search:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"mail.search","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Query":`...)
		dst = jsonx.AppendString(dst, v.Query)
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case FolderOpened:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"mail.folder_opened","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Folder":`...)
		dst = jsonx.AppendString(dst, string(v.Folder))
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case ContactsViewed:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"mail.contacts_viewed","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case FilterCreated:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"mail.filter_created","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"ForwardTo":`...)
		dst = jsonx.AppendString(dst, string(v.ForwardTo))
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case ReplyToSet:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"mail.replyto_set","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Addr":`...)
		dst = jsonx.AppendString(dst, string(v.Addr))
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case MassDeletion:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"mail.mass_deletion","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Deleted":`...)
		dst = appendInt(dst, int64(v.Deleted))
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case SpamReported:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"mail.spam_reported","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Reporter":`...)
		dst = appendInt(dst, int64(v.Reporter))
		dst = append(dst, `,"Message":`...)
		dst = appendInt(dst, int64(v.Message))
		dst = append(dst, `,"From":`...)
		dst = jsonx.AppendString(dst, string(v.From))
		dst = append(dst, `,"FromAcct":`...)
		dst = appendInt(dst, int64(v.FromAcct))
		dst = append(dst, `,"Class":`...)
		dst = jsonx.AppendString(dst, string(v.Class))
	case PageCreated:
		if !timeOK(v.Time) || !jsonx.IsFinite(v.Quality) {
			return dst, false
		}
		dst = append(dst, `{"kind":"phish.page_created","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Page":`...)
		dst = appendInt(dst, int64(v.Page))
		dst = append(dst, `,"Target":`...)
		dst = jsonx.AppendString(dst, string(v.Target))
		dst = append(dst, `,"Quality":`...)
		dst = jsonx.AppendFloat(dst, v.Quality)
		dst = append(dst, `,"OnForms":`...)
		dst = jsonx.AppendBool(dst, v.OnForms)
		dst = append(dst, `,"Targeted":`...)
		dst = jsonx.AppendBool(dst, v.Targeted)
	case PageHit:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"phish.page_hit","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Page":`...)
		dst = appendInt(dst, int64(v.Page))
		dst = append(dst, `,"Method":`...)
		dst = jsonx.AppendString(dst, v.Method)
		dst = append(dst, `,"Referrer":`...)
		dst = jsonx.AppendString(dst, v.Referrer)
		dst = append(dst, `,"Victim":`...)
		dst = jsonx.AppendString(dst, string(v.Victim))
		dst = append(dst, `,"IP":`...)
		dst = appendAddr(dst, v.IP)
	case PageDetected:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"phish.page_detected","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Page":`...)
		dst = appendInt(dst, int64(v.Page))
	case PageTakedown:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"phish.page_takedown","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Page":`...)
		dst = appendInt(dst, int64(v.Page))
	case LureSent:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"phish.lure_sent","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Campaign":`...)
		dst = appendInt(dst, v.Campaign)
		dst = append(dst, `,"Page":`...)
		dst = appendInt(dst, int64(v.Page))
		dst = append(dst, `,"Victim":`...)
		dst = jsonx.AppendString(dst, string(v.Victim))
		dst = append(dst, `,"Target":`...)
		dst = jsonx.AppendString(dst, string(v.Target))
		dst = append(dst, `,"HasURL":`...)
		dst = jsonx.AppendBool(dst, v.HasURL)
		dst = append(dst, `,"Reported":`...)
		dst = jsonx.AppendBool(dst, v.Reported)
	case CredentialPhished:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"phish.credential_phished","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Page":`...)
		dst = appendInt(dst, int64(v.Page))
		dst = append(dst, `,"Decoy":`...)
		dst = jsonx.AppendBool(dst, v.Decoy)
	case HijackStarted:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"hijack.started","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Crew":`...)
		dst = jsonx.AppendString(dst, v.Crew)
		dst = append(dst, `,"Session":`...)
		dst = appendInt(dst, int64(v.Session))
		dst = appendArchetype(dst, v.Archetype)
	case HijackAssessed:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"hijack.assessed","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Crew":`...)
		dst = jsonx.AppendString(dst, v.Crew)
		dst = append(dst, `,"Duration":`...)
		dst = appendInt(dst, int64(v.Duration))
		dst = append(dst, `,"Exploited":`...)
		dst = jsonx.AppendBool(dst, v.Exploited)
		dst = appendArchetype(dst, v.Archetype)
	case HijackEnded:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"hijack.ended","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Crew":`...)
		dst = jsonx.AppendString(dst, v.Crew)
		dst = append(dst, `,"LockedOut":`...)
		dst = jsonx.AppendBool(dst, v.LockedOut)
		dst = appendArchetype(dst, v.Archetype)
	case ScamReply:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"scam.reply","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"VictimAccount":`...)
		dst = appendInt(dst, int64(v.VictimAccount))
		dst = append(dst, `,"Recipient":`...)
		dst = appendInt(dst, int64(v.Recipient))
		dst = append(dst, `,"ReachedHijacker":`...)
		dst = jsonx.AppendBool(dst, v.ReachedHijacker)
		dst = append(dst, `,"Via":`...)
		dst = jsonx.AppendString(dst, v.Via)
	case MoneyWired:
		if !timeOK(v.Time) || !jsonx.IsFinite(v.Amount) {
			return dst, false
		}
		dst = append(dst, `{"kind":"scam.money_wired","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"VictimAccount":`...)
		dst = appendInt(dst, int64(v.VictimAccount))
		dst = append(dst, `,"Recipient":`...)
		dst = appendInt(dst, int64(v.Recipient))
		dst = append(dst, `,"Crew":`...)
		dst = jsonx.AppendString(dst, v.Crew)
		dst = append(dst, `,"Amount":`...)
		dst = jsonx.AppendFloat(dst, v.Amount)
	case NotificationSent:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"recovery.notification","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Channel":`...)
		dst = jsonx.AppendString(dst, string(v.Channel))
		dst = append(dst, `,"Reason":`...)
		dst = jsonx.AppendString(dst, v.Reason)
	case ClaimFiled:
		if !timeOK(v.Time) || !timeOK(v.HijackedAt) {
			return dst, false
		}
		dst = append(dst, `{"kind":"recovery.claim_filed","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Trigger":`...)
		dst = jsonx.AppendString(dst, v.Trigger)
		dst = append(dst, `,"HijackedAt":`...)
		dst = jsonx.AppendTime(dst, v.HijackedAt)
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case ClaimAttempt:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"recovery.claim_attempt","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Method":`...)
		dst = jsonx.AppendString(dst, string(v.Method))
		dst = append(dst, `,"Success":`...)
		dst = jsonx.AppendBool(dst, v.Success)
		dst = append(dst, `,"Reason":`...)
		dst = jsonx.AppendString(dst, v.Reason)
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case ClaimResolved:
		if !timeOK(v.Time) || !timeOK(v.HijackedAt) || !timeOK(v.FlaggedAt) {
			return dst, false
		}
		dst = append(dst, `{"kind":"recovery.claim_resolved","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"Success":`...)
		dst = jsonx.AppendBool(dst, v.Success)
		dst = append(dst, `,"Method":`...)
		dst = jsonx.AppendString(dst, string(v.Method))
		dst = append(dst, `,"HijackedAt":`...)
		dst = jsonx.AppendTime(dst, v.HijackedAt)
		dst = append(dst, `,"FlaggedAt":`...)
		dst = jsonx.AppendTime(dst, v.FlaggedAt)
		dst = append(dst, `,"Actor":`...)
		dst = jsonx.AppendString(dst, string(v.Actor))
	case Remission:
		if !timeOK(v.Time) {
			return dst, false
		}
		dst = append(dst, `{"kind":"recovery.remission","data":{"Time":`...)
		dst = jsonx.AppendTime(dst, v.Time)
		dst = append(dst, `,"Account":`...)
		dst = appendInt(dst, int64(v.Account))
		dst = append(dst, `,"RestoredMessages":`...)
		dst = appendInt(dst, int64(v.RestoredMessages))
		dst = append(dst, `,"ClearedSettings":`...)
		dst = jsonx.AppendBool(dst, v.ClearedSettings)
	default:
		return dst, false
	}
	dst = append(dst, '}', '}', '\n')
	return dst, true
}

// ---- decoding ----

// key consumes `"name":` — canonical keys are plain ASCII, never escaped.
func (r *jsonReader) key(name string) {
	if r.ok {
		r.check(r.s.ExpectKey(name))
	}
}

func (r *jsonReader) comma() { r.expect(',') }

func (r *jsonReader) acct() identity.AccountID { return identity.AccountID(r.intVal(32)) }
func (r *jsonReader) sess() SessionID          { return SessionID(r.intVal(64)) }
func (r *jsonReader) actor() Actor             { return Actor(r.str()) }

// archetypeOpt parses the optional trailing `,"Archetype":"…"` field.
// omitempty drops it for untagged records, so absence (the enclosing '}'
// next) is canonical too; a present-but-empty value is not something the
// canonical encoder emits, so it falls back like any other surprise.
func (r *jsonReader) archetypeOpt() string {
	if r.peek() != ',' {
		return ""
	}
	r.comma()
	r.key("Archetype")
	s := r.str()
	if s == "" {
		r.fail()
	}
	return s
}

// addrList parses a []identity.Address with encoding/json's conventions:
// null → nil, [] → empty non-nil slice.
func (r *jsonReader) addrList() []identity.Address {
	if r.peek() == 'n' {
		_, err := r.s.ScanLiteral()
		r.check(err)
		return nil
	}
	if !r.ok {
		return nil
	}
	out := []identity.Address{}
	r.check(r.s.Array(func() error {
		raw, escaped, err := r.s.ScanString()
		out = append(out, identity.Address(jsonx.Unquote(raw, escaped)))
		return err
	}))
	return out
}

// DecodeLineFast parses one canonical envelope line into its typed
// record. ok is false on any deviation from the canonical encoder's
// output — unknown kind, reordered or missing keys, escapes in the kind
// string or a key, trailing garbage, text that is not JSON — in which
// case the caller must fall back to the encoding/json path, which owns
// the error semantics.
func DecodeLineFast(line []byte) (Event, bool) {
	r := newJSONReader(line)
	r.expect('{')
	r.key("kind")
	if !r.ok {
		return nil, false
	}
	kind, escaped, err := r.s.ScanString()
	if err != nil || escaped {
		return nil, false
	}
	r.comma()
	r.key("data")
	e, ok := decodeDataFast(&r, string(kind))
	if !ok || !r.ok {
		return nil, false
	}
	r.expect('}')
	if !r.ok || !r.s.AtEnd() {
		return nil, false
	}
	return e, true
}

func decodeDataFast(r *jsonReader, kind string) (Event, bool) {
	r.expect('{')
	var e Event
	switch Kind(kind) {
	case KindLogin:
		var v Login
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("IP")
		v.IP = r.addrVal()
		r.comma()
		r.key("DeviceID")
		v.DeviceID = r.str()
		r.comma()
		r.key("PasswordOK")
		v.PasswordOK = r.boolVal()
		r.comma()
		r.key("Outcome")
		v.Outcome = LoginOutcome(r.str())
		r.comma()
		r.key("Challenged")
		v.Challenged = r.boolVal()
		r.comma()
		r.key("RiskScore")
		v.RiskScore = r.floatVal()
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		v.Archetype = r.archetypeOpt()
		e = v
	case KindPasswordChanged:
		var v PasswordChanged
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindRecoveryChanged:
		var v RecoveryChanged
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("What")
		v.What = r.str()
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindTwoSVEnrolled:
		var v TwoSVEnrolled
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Phone")
		v.Phone = geo.Phone(r.str())
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindMessageSent:
		var v MessageSent
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("ID")
		v.ID = MessageID(r.intVal(64))
		r.comma()
		r.key("From")
		v.From = identity.Address(r.str())
		r.comma()
		r.key("FromAcct")
		v.FromAcct = r.acct()
		r.comma()
		r.key("Recipients")
		v.Recipients = r.addrList()
		r.comma()
		r.key("Class")
		v.Class = MessageClass(r.str())
		r.comma()
		r.key("Customized")
		v.Customized = r.boolVal()
		r.comma()
		r.key("ReplyTo")
		v.ReplyTo = identity.Address(r.str())
		r.comma()
		r.key("PageID")
		v.PageID = PageID(r.intVal(64))
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindSearch:
		var v Search
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Query")
		v.Query = r.str()
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindFolderOpened:
		var v FolderOpened
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Folder")
		v.Folder = Folder(r.str())
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindContactsViewed:
		var v ContactsViewed
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindFilterCreated:
		var v FilterCreated
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("ForwardTo")
		v.ForwardTo = identity.Address(r.str())
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindReplyToSet:
		var v ReplyToSet
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Addr")
		v.Addr = identity.Address(r.str())
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindMassDeletion:
		var v MassDeletion
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Deleted")
		v.Deleted = int(r.intVal(64))
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindSpamReported:
		var v SpamReported
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Reporter")
		v.Reporter = r.acct()
		r.comma()
		r.key("Message")
		v.Message = MessageID(r.intVal(64))
		r.comma()
		r.key("From")
		v.From = identity.Address(r.str())
		r.comma()
		r.key("FromAcct")
		v.FromAcct = r.acct()
		r.comma()
		r.key("Class")
		v.Class = MessageClass(r.str())
		e = v
	case KindPageCreated:
		var v PageCreated
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Page")
		v.Page = PageID(r.intVal(64))
		r.comma()
		r.key("Target")
		v.Target = TargetKind(r.str())
		r.comma()
		r.key("Quality")
		v.Quality = r.floatVal()
		r.comma()
		r.key("OnForms")
		v.OnForms = r.boolVal()
		r.comma()
		r.key("Targeted")
		v.Targeted = r.boolVal()
		e = v
	case KindPageHit:
		var v PageHit
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Page")
		v.Page = PageID(r.intVal(64))
		r.comma()
		r.key("Method")
		v.Method = r.str()
		r.comma()
		r.key("Referrer")
		v.Referrer = r.str()
		r.comma()
		r.key("Victim")
		v.Victim = identity.Address(r.str())
		r.comma()
		r.key("IP")
		v.IP = r.addrVal()
		e = v
	case KindPageDetected:
		var v PageDetected
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Page")
		v.Page = PageID(r.intVal(64))
		e = v
	case KindPageTakedown:
		var v PageTakedown
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Page")
		v.Page = PageID(r.intVal(64))
		e = v
	case KindLureSent:
		var v LureSent
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Campaign")
		v.Campaign = r.intVal(64)
		r.comma()
		r.key("Page")
		v.Page = PageID(r.intVal(64))
		r.comma()
		r.key("Victim")
		v.Victim = identity.Address(r.str())
		r.comma()
		r.key("Target")
		v.Target = TargetKind(r.str())
		r.comma()
		r.key("HasURL")
		v.HasURL = r.boolVal()
		r.comma()
		r.key("Reported")
		v.Reported = r.boolVal()
		e = v
	case KindCredentialPhished:
		var v CredentialPhished
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Page")
		v.Page = PageID(r.intVal(64))
		r.comma()
		r.key("Decoy")
		v.Decoy = r.boolVal()
		e = v
	case KindHijackStarted:
		var v HijackStarted
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Crew")
		v.Crew = r.str()
		r.comma()
		r.key("Session")
		v.Session = r.sess()
		v.Archetype = r.archetypeOpt()
		e = v
	case KindHijackAssessed:
		var v HijackAssessed
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Crew")
		v.Crew = r.str()
		r.comma()
		r.key("Duration")
		v.Duration = time.Duration(r.intVal(64))
		r.comma()
		r.key("Exploited")
		v.Exploited = r.boolVal()
		v.Archetype = r.archetypeOpt()
		e = v
	case KindHijackEnded:
		var v HijackEnded
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Crew")
		v.Crew = r.str()
		r.comma()
		r.key("LockedOut")
		v.LockedOut = r.boolVal()
		v.Archetype = r.archetypeOpt()
		e = v
	case KindScamReply:
		var v ScamReply
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("VictimAccount")
		v.VictimAccount = r.acct()
		r.comma()
		r.key("Recipient")
		v.Recipient = r.acct()
		r.comma()
		r.key("ReachedHijacker")
		v.ReachedHijacker = r.boolVal()
		r.comma()
		r.key("Via")
		v.Via = r.str()
		e = v
	case KindMoneyWired:
		var v MoneyWired
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("VictimAccount")
		v.VictimAccount = r.acct()
		r.comma()
		r.key("Recipient")
		v.Recipient = r.acct()
		r.comma()
		r.key("Crew")
		v.Crew = r.str()
		r.comma()
		r.key("Amount")
		v.Amount = r.floatVal()
		e = v
	case KindNotificationSent:
		var v NotificationSent
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Channel")
		v.Channel = NotificationChannel(r.str())
		r.comma()
		r.key("Reason")
		v.Reason = r.str()
		e = v
	case KindClaimFiled:
		var v ClaimFiled
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Trigger")
		v.Trigger = r.str()
		r.comma()
		r.key("HijackedAt")
		v.HijackedAt = r.timeVal()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindClaimAttempt:
		var v ClaimAttempt
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Method")
		v.Method = RecoveryMethod(r.str())
		r.comma()
		r.key("Success")
		v.Success = r.boolVal()
		r.comma()
		r.key("Reason")
		v.Reason = r.str()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindClaimResolved:
		var v ClaimResolved
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("Success")
		v.Success = r.boolVal()
		r.comma()
		r.key("Method")
		v.Method = RecoveryMethod(r.str())
		r.comma()
		r.key("HijackedAt")
		v.HijackedAt = r.timeVal()
		r.comma()
		r.key("FlaggedAt")
		v.FlaggedAt = r.timeVal()
		r.comma()
		r.key("Actor")
		v.Actor = r.actor()
		e = v
	case KindRemission:
		var v Remission
		r.key("Time")
		v.Time = r.timeVal()
		r.comma()
		r.key("Account")
		v.Account = r.acct()
		r.comma()
		r.key("RestoredMessages")
		v.RestoredMessages = int(r.intVal(64))
		r.comma()
		r.key("ClearedSettings")
		v.ClearedSettings = r.boolVal()
		e = v
	default:
		return nil, false
	}
	r.expect('}')
	return e, r.ok
}
