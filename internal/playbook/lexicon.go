package playbook

import (
	"slices"

	"manualhijack/internal/randx"
)

// term is one hijacker mailbox-search term with its base weight, taken
// from Table 3 of the paper (finance ≫ account credentials ≫ content) and
// the language(s) it belongs to.
type term struct {
	text   string
	weight float64
	lang   Language // zero value = common to all languages
}

// table3 encodes the paper's observed search-term frequencies. Finance
// terms dominate (the paper: "searches are overwhelmingly for financial
// data"); the Spanish and Chinese terms tie specific hijacker groups to
// regions, consistent with the attribution analysis (§7).
var table3 = []term{
	// Finance.
	{text: "wire transfer", weight: 14.4},
	{text: "bank transfer", weight: 11.9},
	{text: "transfer", weight: 6.2},
	{text: "bank", weight: 5.2},
	{text: "wire", weight: 4.7},
	{text: "transferencia", weight: 4.6, lang: LangES},
	{text: "investment", weight: 3.4},
	{text: "banco", weight: 3.0, lang: LangES},
	{text: "账单", weight: 1.9, lang: LangZH},
	{text: "statement", weight: 1.5},
	{text: "signature", weight: 1.0},
	// Account credentials (much rarer: "most websites will not send them
	// in clear").
	{text: "password", weight: 0.6},
	{text: "amazon", weight: 0.4},
	{text: "paypal", weight: 0.3},
	{text: "dropbox", weight: 0.1},
	{text: "match", weight: 0.1},
	{text: "ftp", weight: 0.1},
	{text: "facebook", weight: 0.1},
	{text: "skype", weight: 0.1},
	{text: "username", weight: 0.1},
	// Personal content (sold or used for blackmail).
	{text: "jpg", weight: 0.2},
	{text: "mov", weight: 0.2},
	{text: "mp4", weight: 0.2},
	{text: "3gp", weight: 0.1},
	{text: "passport", weight: 0.1},
	{text: "sex", weight: 0.1},
	{text: "filename:(jpg or jpeg or png)", weight: 0.1},
	{text: "is:starred", weight: 0.1},
	{text: "zip", weight: 0.1},
}

// lexiconFor builds the weighted search-term chooser for a crew language:
// common terms keep their Table 3 weight, the crew's own language-specific
// terms are boosted, and other languages' terms are suppressed.
func lexiconFor(lang Language) *randx.Weighted[string] {
	texts := make([]string, 0, len(table3))
	weights := make([]float64, 0, len(table3))
	for _, t := range table3 {
		w := t.weight
		switch {
		case t.lang == "" || t.lang == lang:
			if t.lang == lang && lang != "" && t.lang != "" {
				w *= 4 // a crew leans on its own language's terms
			}
		default:
			w *= 0.05 // foreign-language terms occasionally leak through
		}
		texts = append(texts, t.text)
		weights = append(weights, w)
	}
	return randx.NewWeighted(texts, weights)
}

// FinanceTerms returns the finance-category search terms (used by tests
// and the assessment heuristic).
func FinanceTerms() []string {
	out := []string{}
	for _, t := range table3 {
		if t.weight >= 1.0 {
			out = append(out, t.text)
		}
	}
	return out
}

// financeTerms is FinanceTerms, built once for isFinanceTerm.
var financeTerms = FinanceTerms()

// isFinanceTerm reports whether a term is in the finance category.
func isFinanceTerm(s string) bool { return slices.Contains(financeTerms, s) }
