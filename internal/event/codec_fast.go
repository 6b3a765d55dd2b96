package event

// Hand-rolled wire codec for the 28 record kinds on the NDJSON hot path
// (segment spill + dump encode, segment + dump decode). AppendLine writes
// exactly the line a json.Encoder writes for the record's envelope: the
// same field order (struct declaration order, embedded Base.Time first),
// the same escaping, the same zero-value conventions. DecodeLineFast reads
// only that canonical form and returns ok=false on anything else, so the
// caller falls back to encoding/json, which reads foreign and legacy lines
// and owns the error semantics. Each record type's walk method (event.go)
// is its one field list: the same walk writes the record and reads it
// back, through one helper per field shape below. A field missing from a
// walk fails TestFastCodecMatchesEncodingJSON.

import (
	"net/netip"
	"strconv"
	"time"

	"manualhijack/internal/identity"
	"manualhijack/internal/jsonx"
)

// wire carries one record through its walk. With enc set, each field
// helper appends its field to buf; otherwise it reads the field from s
// into the record. ok turns false at the first value the walk cannot write
// as encoding/json does (a non-finite float, a time MarshalJSON refuses)
// or cannot read as encoding/json would. Reads stop there; the line then
// falls back to encoding/json, which owns the error semantics.
type wire struct {
	enc bool
	ok  bool
	sep byte // '{' before an object's first key, ',' before the others
	buf []byte
	s   jsonx.Scanner
}

// put returns buf with the separator and the key appended, ready for the
// value.
func (w *wire) put(key string) []byte {
	b := append(append(w.buf, w.sep, '"'), key...)
	w.sep = ','
	return append(b, '"', ':')
}

// get consumes the separator and the key, spelled as put writes them, and
// reports whether the value can be read.
func (w *wire) get(key string) bool {
	w.ok = w.ok && w.s.Expect(w.sep) == nil && w.s.ExpectKey(key) == nil
	w.sep = ','
	return w.ok
}

func (w *wire) check(err error) bool {
	w.ok = w.ok && err == nil
	return w.ok
}

// text reads a string value.
func (w *wire) text() string {
	raw, escaped, err := w.s.ScanString()
	if !w.check(err) {
		return ""
	}
	return jsonx.Unquote(raw, escaped)
}

func str[S ~string](w *wire, key string, v *S) {
	if w.enc {
		w.buf = jsonx.AppendString(w.put(key), string(*v))
	} else if w.get(key) {
		*v = S(w.text())
	}
}

// integer walks an integer field. A decoded value outside I's range is an
// error in encoding/json too.
func integer[I ~int | ~int32 | ~int64](w *wire, key string, v *I) {
	if w.enc {
		w.buf = strconv.AppendInt(w.put(key), int64(*v), 10)
	} else if w.get(key) {
		tok, err := w.s.ScanNumber()
		if w.check(err) {
			n, err := strconv.ParseInt(string(tok), 10, 64)
			*v = I(n)
			w.check(err)
			w.ok = w.ok && int64(*v) == n
		}
	}
}

// float walks a float64 field. NaN and ±Inf have no JSON text; the
// encoder refuses them, as encoding/json does.
func float(w *wire, key string, v *float64) {
	if w.enc {
		w.ok = w.ok && jsonx.IsFinite(*v)
		w.buf = jsonx.AppendFloat(w.put(key), *v)
	} else if w.get(key) {
		tok, err := w.s.ScanNumber()
		if w.check(err) {
			*v, err = strconv.ParseFloat(string(tok), 64)
			w.check(err)
		}
	}
}

// boolean walks a bool field. null is valid JSON here (encoding/json
// leaves the field alone) but not what the encoder writes, so the reader
// falls back on it.
func boolean(w *wire, key string, v *bool) {
	if w.enc {
		w.buf = jsonx.AppendBool(w.put(key), *v)
	} else if w.get(key) {
		c, err := w.s.ScanLiteral()
		w.ok = w.check(err) && c != 'n'
		*v = c == 't'
	}
}

// stamp walks a time.Time. The encoder refuses what time.Time.MarshalJSON
// refuses, by MarshalJSON's own check on the same text: the year must be
// four digits (0 to 9999) and the zone Z or ±hh:mm with hh below 24. The
// reader hands the raw value to time.Time.UnmarshalJSON, as encoding/json
// does.
func stamp(w *wire, key string, v *time.Time) {
	if w.enc {
		b := w.put(key)
		n := len(b)
		b = jsonx.AppendTime(b, *v)
		w.buf = b
		// b[n:] is "YYYY-MM-DDThh:mm:ss[.fff]Z" or "…±hh:mm", quoted.
		zone := b[len(b)-7 : len(b)-1]
		w.ok = w.ok && b[n+5] == '-' &&
			(zone[5] == 'Z' || (zone[0] == '+' || zone[0] == '-') && string(zone[1:3]) < "24")
	} else if w.get(key) {
		raw, err := w.s.Raw()
		if w.check(err) {
			w.check(v.UnmarshalJSON(raw))
		}
	}
}

// addr walks a netip.Addr as its quoted text form ("" for the zero Addr),
// matching netip.Addr.MarshalText under encoding/json. Only an IPv6 zone
// can hold bytes JSON escapes, so only a zoned address takes the
// allocating path through jsonx.AppendString.
func addr(w *wire, key string, v *netip.Addr) {
	if w.enc {
		w.buf = w.put(key)
		if v.Zone() != "" {
			w.buf = jsonx.AppendString(w.buf, v.String())
		} else {
			w.buf = append(v.AppendTo(append(w.buf, '"')), '"')
		}
	} else if w.get(key) {
		if s := w.text(); s != "" {
			ip, err := netip.ParseAddr(s)
			*v = ip
			w.check(err)
		}
	}
}

// addrs walks a []identity.Address with encoding/json's slice
// conventions: nil is null, and an empty slice is [].
func addrs(w *wire, key string, v *[]identity.Address) {
	if w.enc {
		w.buf = w.put(key)
		if *v == nil {
			w.buf = append(w.buf, "null"...)
			return
		}
		w.buf = append(w.buf, '[')
		for i, a := range *v {
			if i > 0 {
				w.buf = append(w.buf, ',')
			}
			w.buf = jsonx.AppendString(w.buf, string(a))
		}
		w.buf = append(w.buf, ']')
	} else if w.get(key) {
		if c, _ := w.s.Peek(); c == 'n' {
			_, err := w.s.ScanLiteral()
			w.check(err)
			return
		}
		list := []identity.Address{}
		w.check(w.s.Array(func() error {
			raw, escaped, err := w.s.ScanString()
			list = append(list, identity.Address(jsonx.Unquote(raw, escaped)))
			return err
		}))
		*v = list
	}
}

// archetype walks the optional trailing Archetype field, which the
// json:",omitempty" tag writes only when it is set. A present but empty
// value is not what the encoder writes, so the reader falls back on it.
func archetype(w *wire, v *string) {
	if w.enc {
		if *v != "" {
			str(w, "Archetype", v)
		}
	} else if c, _ := w.s.Peek(); w.ok && c == ',' {
		str(w, "Archetype", v)
		w.ok = w.ok && *v != ""
	}
}

// AppendLine appends the canonical NDJSON envelope line
// {"kind":"<kind>","data":{...}}\n for e. ok is false, with dst
// unchanged, when e is not a registered record type or holds a value
// encoding/json refuses to marshal (a non-finite float, a time outside
// what time.Time.MarshalJSON accepts).
func AppendLine(dst []byte, e Event) ([]byte, bool) {
	// Kinds are plain ASCII, which JSON writes unescaped.
	w := wire{enc: true, ok: true, sep: '{'}
	w.buf = append(append(append(dst, `{"kind":"`...), e.EventKind()...), `","data":`...)
	switch v := e.(type) {
	case Login:
		v.walk(&w)
	case PasswordChanged:
		v.walk(&w)
	case RecoveryChanged:
		v.walk(&w)
	case TwoSVEnrolled:
		v.walk(&w)
	case MessageSent:
		v.walk(&w)
	case Search:
		v.walk(&w)
	case FolderOpened:
		v.walk(&w)
	case ContactsViewed:
		v.walk(&w)
	case FilterCreated:
		v.walk(&w)
	case ReplyToSet:
		v.walk(&w)
	case MassDeletion:
		v.walk(&w)
	case SpamReported:
		v.walk(&w)
	case PageCreated:
		v.walk(&w)
	case PageHit:
		v.walk(&w)
	case PageDetected:
		v.walk(&w)
	case PageTakedown:
		v.walk(&w)
	case LureSent:
		v.walk(&w)
	case CredentialPhished:
		v.walk(&w)
	case HijackStarted:
		v.walk(&w)
	case HijackAssessed:
		v.walk(&w)
	case HijackEnded:
		v.walk(&w)
	case ScamReply:
		v.walk(&w)
	case MoneyWired:
		v.walk(&w)
	case NotificationSent:
		v.walk(&w)
	case ClaimFiled:
		v.walk(&w)
	case ClaimAttempt:
		v.walk(&w)
	case ClaimResolved:
		v.walk(&w)
	case Remission:
		v.walk(&w)
	default:
		return dst, false
	}
	if !w.ok {
		return dst, false
	}
	return append(w.buf, '}', '}', '\n'), true
}

// DecodeLineFast parses one canonical envelope line into its typed
// record. ok is false on any deviation from the canonical encoder's
// output — unknown kind, reordered or missing keys, escapes in the kind
// string or a key, trailing garbage, text that is not JSON — in which
// case the caller must fall back to the encoding/json path, which owns
// the error semantics.
func DecodeLineFast(line []byte) (Event, bool) {
	w := wire{ok: true, sep: '{', s: jsonx.NewScanner(line)}
	if !w.get("kind") {
		return nil, false
	}
	kind, escaped, err := w.s.ScanString()
	if err != nil || escaped || !w.get("data") {
		return nil, false
	}
	w.sep = '{'
	var e Event
	switch Kind(kind) {
	case KindLogin:
		var v Login
		v.walk(&w)
		e = v
	case KindPasswordChanged:
		var v PasswordChanged
		v.walk(&w)
		e = v
	case KindRecoveryChanged:
		var v RecoveryChanged
		v.walk(&w)
		e = v
	case KindTwoSVEnrolled:
		var v TwoSVEnrolled
		v.walk(&w)
		e = v
	case KindMessageSent:
		var v MessageSent
		v.walk(&w)
		e = v
	case KindSearch:
		var v Search
		v.walk(&w)
		e = v
	case KindFolderOpened:
		var v FolderOpened
		v.walk(&w)
		e = v
	case KindContactsViewed:
		var v ContactsViewed
		v.walk(&w)
		e = v
	case KindFilterCreated:
		var v FilterCreated
		v.walk(&w)
		e = v
	case KindReplyToSet:
		var v ReplyToSet
		v.walk(&w)
		e = v
	case KindMassDeletion:
		var v MassDeletion
		v.walk(&w)
		e = v
	case KindSpamReported:
		var v SpamReported
		v.walk(&w)
		e = v
	case KindPageCreated:
		var v PageCreated
		v.walk(&w)
		e = v
	case KindPageHit:
		var v PageHit
		v.walk(&w)
		e = v
	case KindPageDetected:
		var v PageDetected
		v.walk(&w)
		e = v
	case KindPageTakedown:
		var v PageTakedown
		v.walk(&w)
		e = v
	case KindLureSent:
		var v LureSent
		v.walk(&w)
		e = v
	case KindCredentialPhished:
		var v CredentialPhished
		v.walk(&w)
		e = v
	case KindHijackStarted:
		var v HijackStarted
		v.walk(&w)
		e = v
	case KindHijackAssessed:
		var v HijackAssessed
		v.walk(&w)
		e = v
	case KindHijackEnded:
		var v HijackEnded
		v.walk(&w)
		e = v
	case KindScamReply:
		var v ScamReply
		v.walk(&w)
		e = v
	case KindMoneyWired:
		var v MoneyWired
		v.walk(&w)
		e = v
	case KindNotificationSent:
		var v NotificationSent
		v.walk(&w)
		e = v
	case KindClaimFiled:
		var v ClaimFiled
		v.walk(&w)
		e = v
	case KindClaimAttempt:
		var v ClaimAttempt
		v.walk(&w)
		e = v
	case KindClaimResolved:
		var v ClaimResolved
		v.walk(&w)
		e = v
	case KindRemission:
		var v Remission
		v.walk(&w)
		e = v
	default:
		return nil, false
	}
	if !w.ok || w.s.Expect('}') != nil || w.s.Expect('}') != nil || !w.s.AtEnd() {
		return nil, false
	}
	return e, true
}
