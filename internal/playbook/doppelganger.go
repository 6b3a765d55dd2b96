package playbook

import (
	"strings"

	"manualhijack/internal/identity"
	"manualhijack/internal/randx"
)

// makeDoppelganger builds a look-alike address for the victim (§5.4):
// either a difficult-to-spot typo of the username at the same provider,
// or the same username at a similar-looking domain with a different
// provider — both observed in the wild (the paper's example keeps the
// username and swaps gmail.com for a look-alike domain).
func makeDoppelganger(r *randx.Rand, victim identity.Address) identity.Address {
	s := string(victim)
	at := strings.LastIndexByte(s, '@')
	if at <= 0 {
		return identity.Address("doppel@" + typoDomain(r, "lookalike.test"))
	}
	user, domain := s[:at], s[at+1:]
	if r.Bool(0.5) {
		return identity.Address(typoString(r, user) + "@" + domain)
	}
	return identity.Address(user + "@" + typoDomain(r, domain))
}

// typoString applies one hard-to-notice edit to s.
func typoString(r *randx.Rand, s string) string {
	runes := []rune(s)
	if len(runes) == 0 {
		return "x"
	}
	switch r.Intn(3) {
	case 0: // swap two adjacent runes
		if len(runes) >= 2 {
			i := r.Intn(len(runes) - 1)
			runes[i], runes[i+1] = runes[i+1], runes[i]
			if out := string(runes); out != s {
				return out
			}
		}
		fallthrough
	case 1: // substitute a visually similar rune
		i := r.Intn(len(runes))
		runes[i] = confusable(runes[i])
		if out := string(runes); out != s {
			return out
		}
		fallthrough
	default: // duplicate a rune
		i := r.Intn(len(runes))
		out := make([]rune, 0, len(runes)+1)
		out = append(out, runes[:i+1]...)
		out = append(out, runes[i])
		out = append(out, runes[i+1:]...)
		return string(out)
	}
}

// typoDomain typos only the domain's first label, keeping the TLD intact
// so the address still looks routine.
func typoDomain(r *randx.Rand, domain string) string {
	dot := strings.IndexByte(domain, '.')
	if dot <= 0 {
		return typoString(r, domain)
	}
	return typoString(r, domain[:dot]) + domain[dot:]
}

// confusable maps a rune to a visually similar one.
func confusable(c rune) rune {
	switch c {
	case 'l':
		return '1'
	case '1':
		return 'l'
	case 'o':
		return '0'
	case '0':
		return 'o'
	case 'i':
		return 'l'
	case 'm':
		return 'n'
	case 'n':
		return 'm'
	case 'e':
		return 'a'
	default:
		return 'x'
	}
}
