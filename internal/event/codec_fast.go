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
	"encoding/binary"
	"net/netip"
	"strconv"
	"time"

	"manualhijack/internal/identity"
	"manualhijack/internal/jsonx"
)

// wire carries one record through its walk. With enc set, each field
// helper appends its field to buf; otherwise it reads the field from s
// into the record. A check-only read (skim) validates every field exactly
// as a read does but makes none of the record's strings, lists or box:
// only its kind and time come out. ok turns false at the first value the
// walk cannot write as encoding/json does (a non-finite float, a time
// MarshalJSON refuses) or cannot read as encoding/json would. Reads stop
// there; the line then falls back to encoding/json, which owns the error
// semantics.
type wire struct {
	enc  bool
	skim bool
	ok   bool
	sep  byte // '{' before an object's first key, ',' before the others
	buf  []byte
	s    jsonx.Scanner
	// strs, when set, shares repeated strings between records (Decoder).
	strs *strTable
	// kind and at are the record's kind and time once its walk has ended.
	kind Kind
	at   time.Time
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
	w.ok = w.ok && w.s.ExpectMember(w.sep, key) == nil
	w.sep = ','
	return w.ok
}

func (w *wire) check(err error) bool {
	w.ok = w.ok && err == nil
	return w.ok
}

// text reads a string value; set reports whether it is non-empty. A
// check-only read makes no string and returns "".
func (w *wire) text() (v string, set bool) {
	raw, escaped, err := w.s.ScanString()
	if !w.check(err) || w.skim {
		return "", len(raw) > 0
	}
	return w.value(raw, escaped), len(raw) > 0
}

// value returns the string a record keeps of a scanned string: a copy of
// its own, or the table's shared copy of an escape-free one.
func (w *wire) value(raw []byte, escaped bool) string {
	if w.strs != nil && !escaped {
		return w.strs.share(raw)
	}
	return jsonx.Unquote(raw, escaped)
}

func str[S ~string](w *wire, key string, v *S) {
	if w.enc {
		w.buf = jsonx.AppendString(w.put(key), string(*v))
	} else if w.get(key) {
		s, _ := w.text()
		*v = S(s)
	}
}

// integer walks an integer field. A decoded value outside I's range is an
// error in encoding/json too.
func integer[I ~int | ~int32 | ~int64](w *wire, key string, v *I) {
	if w.enc {
		w.buf = strconv.AppendInt(w.put(key), int64(*v), 10)
	} else if w.get(key) {
		n, ok := w.s.Int()
		if !ok {
			tok, err := w.s.ScanNumber()
			if !w.check(err) {
				return
			}
			n, err = strconv.ParseInt(string(tok), 10, 64)
			w.check(err)
		}
		*v = I(n)
		w.ok = w.ok && int64(*v) == n
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
// reader takes a UTC time as the encoder writes it straight to its value
// (jsonx.Scanner.TimeUTC) and hands any other raw value to
// time.Time.UnmarshalJSON, as encoding/json does.
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
		if t, ok := w.s.TimeUTC(); ok {
			*v = t
			return
		}
		raw, err := w.s.Raw()
		if w.check(err) {
			w.check(v.UnmarshalJSON(raw))
		}
	}
}

// addr walks a netip.Addr as its quoted text form ("" for the zero Addr),
// matching netip.Addr.MarshalText under encoding/json. Only an IPv6 zone
// can hold bytes JSON escapes, so only a zoned address takes the
// allocating path through jsonx.AppendString. The reader makes no string
// of a dotted quad (ipv4); other text goes through netip.ParseAddr.
func addr(w *wire, key string, v *netip.Addr) {
	if w.enc {
		w.buf = w.put(key)
		if v.Zone() != "" {
			w.buf = jsonx.AppendString(w.buf, v.String())
		} else {
			w.buf = append(v.AppendTo(append(w.buf, '"')), '"')
		}
	} else if w.get(key) {
		raw, escaped, err := w.s.ScanString()
		if !w.check(err) || len(raw) == 0 {
			return
		}
		if ip, ok := ipv4(raw); ok {
			*v = ip
			return
		}
		ip, err := netip.ParseAddr(jsonx.Unquote(raw, escaped))
		*v = ip
		w.check(err)
	}
}

// ipv4 reads the text netip.ParseAddr reads as an IPv4 address, four
// dot-separated fields of one to three digits with no leading zero and
// none above 255, without making a string of it. ok is false on any other
// text, which ParseAddr then reads.
func ipv4(b []byte) (ip netip.Addr, ok bool) {
	var quad [4]byte
	field, val, digits := 0, 0, 0
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			if digits == 1 && val == 0 {
				return ip, false
			}
			val, digits = val*10+int(c-'0'), digits+1
			if val > 255 {
				return ip, false
			}
		case c == '.' && digits > 0 && field < 3:
			quad[field] = byte(val)
			field, val, digits = field+1, 0, 0
		default:
			return ip, false
		}
	}
	if field != 3 || digits == 0 {
		return ip, false
	}
	quad[3] = byte(val)
	return netip.AddrFrom4(quad), true
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
		// The list gathers on the stack and is copied out at its length,
		// one allocation however long it is.
		var short [8]identity.Address
		list := short[:0]
		w.check(w.s.Array(func() error {
			raw, escaped, err := w.s.ScanString()
			if err == nil && !w.skim {
				list = append(list, identity.Address(w.value(raw, escaped)))
			}
			return err
		}))
		*v = make([]identity.Address, len(list))
		copy(*v, list)
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
	} else if c, _ := w.s.Peek(); w.ok && c == ',' && w.get("Archetype") {
		var set bool
		*v, set = w.text()
		w.ok = w.ok && set
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
// the error semantics. Every string of the record is a copy of its own.
func DecodeLineFast(line []byte) (Event, bool) {
	w := wire{ok: true}
	return read(&w, line)
}

// CheckLineFast validates line exactly as DecodeLineFast does, accepting
// the same lines, and returns only the record's kind and time: it makes
// no record, string or list, so a line it accepts allocates nothing
// (a non-UTC time or an address that is not a dotted quad may).
func CheckLineFast(line []byte) (Kind, time.Time, bool) {
	w := wire{ok: true, skim: true}
	if _, ok := read(&w, line); !ok {
		return "", time.Time{}, false
	}
	return w.kind, w.at, true
}

// Decoder decodes canonical lines as DecodeLineFast does, and shares
// strings between the records it decodes: an escape-free string value
// equal to one it decoded recently comes back as that same string, not a
// new copy. Actors, outcomes, folders, device IDs and addresses repeat
// throughout a log, so the records of one Decoder hold far fewer strings.
// The zero Decoder is ready to use; it allocates its table of recent
// strings at its first line. A Decoder is not safe for concurrent use.
type Decoder struct {
	strs *strTable
}

// DecodeLine is DecodeLineFast, with strings shared through d.
func (d *Decoder) DecodeLine(line []byte) (Event, bool) {
	if d.strs == nil {
		d.strs = new(strTable)
	}
	w := wire{ok: true, strs: d.strs}
	return read(&w, line)
}

// strTable is a Decoder's recent strings: a direct-mapped table keyed by
// a hash of each string's bytes, whose slot a newer string takes over.
type strTable [1 << 10]string

// share returns the value of raw, the text of an escape-free string: the
// string in raw's slot when that is raw, else a new one, which takes the
// slot. A string in the table is valid UTF-8, so the one raw equals is
// raw's value.
func (t *strTable) share(raw []byte) string {
	h := uint64(len(raw))
	b := raw
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0x100000001b3
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	slot := &t[(h*0x9e3779b97f4a7c15)>>54]
	if *slot != string(raw) {
		*slot = jsonx.Unquote(raw, false)
	}
	return *slot
}

// read parses one canonical envelope line through its record's walk.
func read(w *wire, line []byte) (Event, bool) {
	w.sep, w.s = '{', jsonx.NewScanner(line)
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
		v.walk(w)
		e = keep(w, v)
	case KindPasswordChanged:
		var v PasswordChanged
		v.walk(w)
		e = keep(w, v)
	case KindRecoveryChanged:
		var v RecoveryChanged
		v.walk(w)
		e = keep(w, v)
	case KindTwoSVEnrolled:
		var v TwoSVEnrolled
		v.walk(w)
		e = keep(w, v)
	case KindMessageSent:
		var v MessageSent
		v.walk(w)
		e = keep(w, v)
	case KindSearch:
		var v Search
		v.walk(w)
		e = keep(w, v)
	case KindFolderOpened:
		var v FolderOpened
		v.walk(w)
		e = keep(w, v)
	case KindContactsViewed:
		var v ContactsViewed
		v.walk(w)
		e = keep(w, v)
	case KindFilterCreated:
		var v FilterCreated
		v.walk(w)
		e = keep(w, v)
	case KindReplyToSet:
		var v ReplyToSet
		v.walk(w)
		e = keep(w, v)
	case KindMassDeletion:
		var v MassDeletion
		v.walk(w)
		e = keep(w, v)
	case KindSpamReported:
		var v SpamReported
		v.walk(w)
		e = keep(w, v)
	case KindPageCreated:
		var v PageCreated
		v.walk(w)
		e = keep(w, v)
	case KindPageHit:
		var v PageHit
		v.walk(w)
		e = keep(w, v)
	case KindPageDetected:
		var v PageDetected
		v.walk(w)
		e = keep(w, v)
	case KindPageTakedown:
		var v PageTakedown
		v.walk(w)
		e = keep(w, v)
	case KindLureSent:
		var v LureSent
		v.walk(w)
		e = keep(w, v)
	case KindCredentialPhished:
		var v CredentialPhished
		v.walk(w)
		e = keep(w, v)
	case KindHijackStarted:
		var v HijackStarted
		v.walk(w)
		e = keep(w, v)
	case KindHijackAssessed:
		var v HijackAssessed
		v.walk(w)
		e = keep(w, v)
	case KindHijackEnded:
		var v HijackEnded
		v.walk(w)
		e = keep(w, v)
	case KindScamReply:
		var v ScamReply
		v.walk(w)
		e = keep(w, v)
	case KindMoneyWired:
		var v MoneyWired
		v.walk(w)
		e = keep(w, v)
	case KindNotificationSent:
		var v NotificationSent
		v.walk(w)
		e = keep(w, v)
	case KindClaimFiled:
		var v ClaimFiled
		v.walk(w)
		e = keep(w, v)
	case KindClaimAttempt:
		var v ClaimAttempt
		v.walk(w)
		e = keep(w, v)
	case KindClaimResolved:
		var v ClaimResolved
		v.walk(w)
		e = keep(w, v)
	case KindRemission:
		var v Remission
		v.walk(w)
		e = keep(w, v)
	default:
		return nil, false
	}
	if !w.ok || w.s.Expect('}') != nil || w.s.Expect('}') != nil || !w.s.AtEnd() {
		return nil, false
	}
	return e, true
}

// keep ends a record's read: it notes the record's kind and time in w and
// returns the record, or nil from a check-only read, which makes none.
func keep[T Event](w *wire, v T) Event {
	w.kind, w.at = v.EventKind(), v.When()
	if w.skim {
		return nil
	}
	return v
}
