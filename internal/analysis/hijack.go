package analysis

import (
	"slices"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/mail"
	"manualhijack/internal/randx"
	"manualhijack/internal/stats"
)

// Figure7 is the decoy-credential access-speed experiment (Dataset 4).
type Figure7 struct {
	Submitted     int
	Accessed      int
	AccessedShare float64
	Within30Min   float64 // share of accessed decoys reached within 30 min
	Within7Hours  float64
	Delays        *stats.Sample // hours
}

// decoyLogin is the slice of a hijacker login the Dataset 4 join needs.
type decoyLogin struct {
	account identity.AccountID
	at      time.Time
}

// decoyAccess pairs a decoy credential submission with the hijacker's
// first access (Dataset 4).
type decoyAccess struct {
	account     identity.AccountID
	submittedAt time.Time
	accessedAt  time.Time
	accessed    bool
}

// Figure7Builder reproduces Figure 7. It accumulates Dataset 4's two
// populations — decoy submissions and hijacker logins — and joins each
// decoy submission with the first later hijacker login on its account at
// snapshot time, so state grows with the attack (decoys + hijacker
// logins), not with the log.
type Figure7Builder struct {
	submitted map[identity.AccountID]int // account → index in accesses
	accesses  []decoyAccess
	logins    []decoyLogin
}

// NewFigure7Builder returns an empty builder.
func NewFigure7Builder() *Figure7Builder {
	return &Figure7Builder{submitted: map[identity.AccountID]int{}}
}

// Observe folds one event into the Dataset 4 populations.
func (b *Figure7Builder) Observe(e event.Event) {
	switch ev := e.(type) {
	case event.CredentialPhished:
		if !ev.Decoy {
			return
		}
		if _, dup := b.submitted[ev.Account]; dup {
			return
		}
		b.submitted[ev.Account] = len(b.accesses)
		b.accesses = append(b.accesses, decoyAccess{
			account: ev.Account, submittedAt: ev.When()})
	case event.Login:
		if ev.Actor == event.ActorHijacker {
			b.logins = append(b.logins, decoyLogin{ev.Account, ev.When()})
		}
	}
}

// Figure7 snapshots the figure from the populations observed so far.
func (b *Figure7Builder) Figure7() Figure7 {
	accesses := append([]decoyAccess(nil), b.accesses...)
	for _, l := range b.logins {
		idx, ok := b.submitted[l.account]
		if !ok || accesses[idx].accessed || l.at.Before(accesses[idx].submittedAt) {
			continue
		}
		accesses[idx].accessedAt = l.at
		accesses[idx].accessed = true
	}
	fig := Figure7{Submitted: len(accesses), Delays: &stats.Sample{}}
	for _, a := range accesses {
		if !a.accessed {
			continue
		}
		fig.Accessed++
		fig.Delays.Add(a.accessedAt.Sub(a.submittedAt).Hours())
	}
	fig.AccessedShare = stats.Ratio(float64(fig.Accessed), float64(fig.Submitted))
	if fig.Accessed > 0 {
		fig.Within30Min = fig.Delays.FracBelow(0.5)
		fig.Within7Hours = fig.Delays.FracBelow(7)
	}
	return fig
}

// Figure8 is hijacker activity per IP per day (Dataset 5). The paper's
// figure plots two daily series over a two-week window: average attempts
// per IP and average successes per IP.
type Figure8 struct {
	MeanAttemptsPerIPDay float64
	MeanAccountsPerIPDay float64
	MaxAccountsPerIPDay  int
	// SuccessShare is successes/attempts; PasswordOKShare is the share of
	// attempts with a correct password (§5.1: ~75% including retries).
	SuccessShare    float64
	PasswordOKShare float64
	IPDays          int
	// DailyAttempts and DailySuccesses are the per-day averages per active
	// hijacker IP — the two lines of the paper's plot.
	DailyAttempts  []float64
	DailySuccesses []float64
}

// ipDayKey keys the per-IP, per-UTC-day aggregates.
type ipDayKey struct {
	ip  string
	day time.Time
}

// Figure8Builder reproduces Figure 8 from per-IP-day fanout aggregates
// that grow with distinct IP-days, not with the log. Every path — the
// study, a scan of a finished log and the live stream bus — feeds it one
// event at a time and finalizes through Figure8, so they cannot drift.
type Figure8Builder struct {
	attempts map[ipDayKey]int
	accounts map[ipDayKey]map[identity.AccountID]bool

	totalAttempts, okPasswords, successes int
	daySuccess                            map[time.Time]int
}

// NewFigure8Builder returns an empty builder.
func NewFigure8Builder() *Figure8Builder {
	return &Figure8Builder{
		attempts:   map[ipDayKey]int{},
		accounts:   map[ipDayKey]map[identity.AccountID]bool{},
		daySuccess: map[time.Time]int{},
	}
}

// Observe folds one event into the aggregates. Non-login and non-hijacker
// records are ignored, mirroring Dataset 5's filter.
func (b *Figure8Builder) Observe(e event.Event) {
	l, ok := e.(event.Login)
	if !ok || l.Actor != event.ActorHijacker {
		return
	}
	day := l.When().Truncate(24 * time.Hour)
	k := ipDayKey{l.IP.String(), day}
	b.attempts[k]++
	if b.accounts[k] == nil {
		b.accounts[k] = map[identity.AccountID]bool{}
	}
	b.accounts[k][l.Account] = true
	b.totalAttempts++
	if l.PasswordOK {
		b.okPasswords++
	}
	if l.Outcome == event.LoginSuccess {
		b.successes++
		b.daySuccess[day]++
	}
}

// Figure8 snapshots the figure from the aggregates observed so far.
func (b *Figure8Builder) Figure8() Figure8 {
	var fig Figure8
	fig.IPDays = len(b.attempts)
	if fig.IPDays == 0 {
		return fig
	}
	sumAtt, sumAcc := 0, 0
	var firstDay, lastDay time.Time
	dayAttempts := map[time.Time]int{}
	dayIPs := map[time.Time]int{}
	for k, n := range b.attempts {
		sumAtt += n
		na := len(b.accounts[k])
		sumAcc += na
		if na > fig.MaxAccountsPerIPDay {
			fig.MaxAccountsPerIPDay = na
		}
		dayAttempts[k.day] += n
		dayIPs[k.day]++
		if firstDay.IsZero() || k.day.Before(firstDay) {
			firstDay = k.day
		}
		if k.day.After(lastDay) {
			lastDay = k.day
		}
	}
	for d := firstDay; !d.After(lastDay); d = d.Add(24 * time.Hour) {
		ips := dayIPs[d]
		if ips == 0 {
			fig.DailyAttempts = append(fig.DailyAttempts, 0)
			fig.DailySuccesses = append(fig.DailySuccesses, 0)
			continue
		}
		fig.DailyAttempts = append(fig.DailyAttempts, float64(dayAttempts[d])/float64(ips))
		fig.DailySuccesses = append(fig.DailySuccesses, float64(b.daySuccess[d])/float64(ips))
	}
	fig.MeanAttemptsPerIPDay = float64(sumAtt) / float64(fig.IPDays)
	fig.MeanAccountsPerIPDay = float64(sumAcc) / float64(fig.IPDays)
	fig.SuccessShare = stats.Ratio(float64(b.successes), float64(b.totalAttempts))
	fig.PasswordOKShare = stats.Ratio(float64(b.okPasswords), float64(b.totalAttempts))
	return fig
}

// Table3 is the hijacker search-term frequency table (Dataset 6).
type Table3 struct {
	Terms        []stats.Entry
	FinanceShare float64
	CredShare    float64
	N            int
	// NonEnglish reports whether Spanish/Chinese terms appear — the
	// regional fingerprint §5.2 notes.
	HasSpanish bool
	HasChinese bool
}

// Table3Builder reproduces Table 3: a counter over hijacker search terms,
// classified at snapshot time.
type Table3Builder struct {
	terms stats.Counter
}

// NewTable3Builder returns an empty builder.
func NewTable3Builder() *Table3Builder { return &Table3Builder{} }

// Observe folds one event into the term counts, mirroring Dataset 6's
// hijacker-search filter.
func (b *Table3Builder) Observe(e event.Event) {
	if q, ok := e.(event.Search); ok && q.Actor == event.ActorHijacker {
		b.terms.Add(q.Query)
	}
}

// Table3 snapshots the table from the terms observed so far.
func (b *Table3Builder) Table3() Table3 {
	c := &b.terms
	t := Table3{Terms: c.Sorted(), N: c.Total()}
	finance := map[string]bool{}
	for _, k := range mail.FinanceKeywords {
		finance[k] = true
	}
	financeExtra := map[string]bool{"wire transfer": true, "bank transfer": true,
		"transfer": true, "wire": true, "bank": true, "transferencia": true,
		"investment": true, "banco": true, "账单": true, "statement": true,
		"signature": true}
	cred := map[string]bool{}
	for _, k := range mail.CredentialKeywords {
		cred[k] = true
	}
	for _, e := range t.Terms {
		switch {
		case finance[e.Key] || financeExtra[e.Key]:
			t.FinanceShare += e.Share
		case cred[e.Key]:
			t.CredShare += e.Share
		}
		if e.Key == "transferencia" || e.Key == "banco" {
			t.HasSpanish = true
		}
		if e.Key == "账单" {
			t.HasChinese = true
		}
	}
	return t
}

// Assessment summarizes the value-assessment phase (§5.2, Dataset 7).
type Assessment struct {
	Cases           int
	MeanDuration    time.Duration
	MedianDuration  time.Duration
	ExploitedShare  float64
	FolderOpenRates map[event.Folder]float64
}

// d7Cases accumulates Dataset 7's population incrementally: distinct
// hijacked accounts in first-HijackStarted order (Dataset 7: 575 in the
// paper, selected via recovery claims that clearly indicate manual
// hijacking; here, a completed hijack lifecycle in the log), which is the
// order the dataset's deterministic sample is drawn from.
type d7Cases struct {
	seen map[identity.AccountID]bool
	ids  []identity.AccountID
}

func (d *d7Cases) observe(e event.Event) {
	h, ok := e.(event.HijackStarted)
	if !ok || d.seen[h.Account] {
		return
	}
	if d.seen == nil {
		d.seen = map[identity.AccountID]bool{}
	}
	d.seen[h.Account] = true
	d.ids = append(d.ids, h.Account)
}

// sample draws Dataset 7's deterministic sample as a membership set.
func (d *d7Cases) sample(n int) map[identity.AccountID]bool {
	inSet := map[identity.AccountID]bool{}
	for _, a := range sampleN(7, d.ids, n) {
		inSet[a] = true
	}
	return inSet
}

// AssessmentBuilder reproduces the §5.2 measurements from the hijack
// lifecycle events and the per-session folder opens. The Dataset 7 sample
// is only drawable once the full case population is known, so the builder
// buffers the hijack-scale event subsequences the analysis joins against —
// assessments and hijacker folder opens — and aggregates them at snapshot
// time. State grows with the attack, not with the log.
type AssessmentBuilder struct {
	cases    d7Cases
	assessed []event.HijackAssessed
	opens    []event.FolderOpened
}

// NewAssessmentBuilder returns an empty builder.
func NewAssessmentBuilder() *AssessmentBuilder { return &AssessmentBuilder{} }

// Observe folds one event into the buffered populations.
func (b *AssessmentBuilder) Observe(e event.Event) {
	b.cases.observe(e)
	switch ev := e.(type) {
	case event.HijackAssessed:
		b.assessed = append(b.assessed, ev)
	case event.FolderOpened:
		if ev.Actor == event.ActorHijacker {
			b.opens = append(b.opens, ev)
		}
	}
}

// Assessment snapshots the §5.2 measurements observed so far.
func (b *AssessmentBuilder) Assessment(sampleSize int) Assessment {
	inSet := b.cases.sample(sampleSize)

	var durations stats.Sample
	exploited := 0
	cases := 0
	for _, a := range b.assessed {
		if !inSet[a.Account] {
			continue
		}
		cases++
		durations.AddDuration(a.Duration)
		if a.Exploited {
			exploited++
		}
	}
	// Folder-open rates across hijack cases.
	opened := map[event.Folder]map[identity.AccountID]bool{}
	for _, f := range b.opens {
		if !inSet[f.Account] {
			continue
		}
		if opened[f.Folder] == nil {
			opened[f.Folder] = map[identity.AccountID]bool{}
		}
		opened[f.Folder][f.Account] = true
	}
	rates := map[event.Folder]float64{}
	for folder, set := range opened {
		rates[folder] = stats.Ratio(float64(len(set)), float64(cases))
	}
	return Assessment{
		Cases:           cases,
		MeanDuration:    time.Duration(durations.Mean() * float64(time.Second)),
		MedianDuration:  time.Duration(durations.Median() * float64(time.Second)),
		ExploitedShare:  stats.Ratio(float64(exploited), float64(cases)),
		FolderOpenRates: rates,
	}
}

// Exploitation summarizes §5.3's mail-delta and message-mix measurements.
type Exploitation struct {
	// Deltas comparing the hijack day to the previous day, averaged over
	// exploited accounts.
	VolumeDelta     float64 // paper: +25%
	RecipientsDelta float64 // paper: +630%
	ReportsDelta    float64 // paper: +39%
	// Message mix among hijacker-sent mail (Dataset 8 review).
	ScamShare  float64 // paper: 65%
	PhishShare float64 // paper: 35%
	// AtMostFiveMessages is the share of victims who had ≤5 hijacker
	// messages sent from their account (paper: 65%).
	AtMostFiveMessages float64
	// SmallCustomizedShare is the share of hijack cases whose messages had
	// <10 recipients (paper: 6%, tending to be customized);
	// CustomizedGivenSmall is how often those were customized.
	SmallCustomizedShare float64
	CustomizedGivenSmall float64
	Cases                int
}

// ExploitationBuilder reproduces §5.3 from Datasets 7 and 8. The deltas
// compare a sampled case's hijack day with the day before, so the builder
// folds each account's account-sent mail and spam reports into day
// tallies instead of keeping the records: before the account's first
// HijackStarted, its two most recent active days; from that start on day
// D, only D−1 and D. Beside them it counts each account's hijacker-sent
// mail. The Dataset 7 sample is drawn at snapshot time over the distinct
// hijacked accounts, and every sum over it is of integers, so the result
// does not depend on the order the sample is read in. State grows with the
// sending accounts, not with their mail. Records must arrive in time
// order, as every log holds them.
type ExploitationBuilder struct {
	index map[identity.AccountID]int32
	accts []exploitAcct
	// cases lists the distinct hijacked accounts in first-HijackStarted
	// order, the order Dataset 7's sample is drawn from.
	cases []identity.AccountID
}

// exploitAcct is one sending or hijacked account's §5.3 state.
type exploitAcct struct {
	// days[1] is the later day. Before the first HijackStarted they are
	// the two most recent active days; from it on, D−1 and D.
	days    [2]exploitDay
	started bool
	// Hijacker-sent mail: messages, scams and phishes, whether any had
	// under 10 recipients, and whether any such message was customized.
	sent, scam, phish      int32
	small, customizedSmall bool
}

// exploitDay tallies one account's mail and spam reports on one UTC day.
type exploitDay struct {
	day           int64 // days since the Unix epoch
	msgs, reports int32
	// distinct is the length of rcpts' sorted, duplicate-free prefix; the
	// recipients added since follow it unsorted until the next compact.
	distinct int32
	rcpts    []identity.Address
}

// NewExploitationBuilder returns an empty builder.
func NewExploitationBuilder() *ExploitationBuilder {
	return &ExploitationBuilder{index: map[identity.AccountID]int32{}}
}

// Observe folds one record into its account's tallies, reading only
// hijack starts and account-attributed mail and spam reports.
func (b *ExploitationBuilder) Observe(e event.Event) {
	switch ev := e.(type) {
	case event.HijackStarted:
		a := b.acct(ev.Account)
		if !a.started {
			a.start(dayOf(ev.When()))
			b.cases = append(b.cases, ev.Account)
		}
	case event.MessageSent:
		if ev.FromAcct == identity.None {
			return
		}
		a := b.acct(ev.FromAcct)
		if ev.Actor == event.ActorHijacker {
			a.sent++
			switch ev.Class {
			case event.ClassScam:
				a.scam++
			case event.ClassPhish:
				a.phish++
			}
			if len(ev.Recipients) < 10 {
				a.small = true
				a.customizedSmall = a.customizedSmall || ev.Customized
			}
		}
		if d := a.tally(dayOf(ev.When())); d != nil {
			d.msgs++
			d.addRecipients(ev.Recipients)
		}
	case event.SpamReported:
		if ev.FromAcct == identity.None {
			return
		}
		// A report counts on the day it was made, as a proxy for the day
		// the reported message was sent.
		if d := b.acct(ev.FromAcct).tally(dayOf(ev.When())); d != nil {
			d.reports++
		}
	}
}

// acct returns id's state, adding it on first sight.
func (b *ExploitationBuilder) acct(id identity.AccountID) *exploitAcct {
	i, ok := b.index[id]
	if !ok {
		i = int32(len(b.accts))
		b.index[id] = i
		b.accts = append(b.accts, exploitAcct{})
	}
	return &b.accts[i]
}

// dayOf numbers t's UTC day.
func dayOf(t time.Time) int64 {
	return t.Truncate(24*time.Hour).Unix() / (24 * 60 * 60)
}

// start marks the account's first HijackStarted, on day d: it keeps the
// tallies of d−1 and d and drops any other.
func (a *exploitAcct) start(d int64) {
	a.started = true
	kept := [2]exploitDay{{day: d - 1}, {day: d}}
	for _, t := range a.days {
		if t.active() && (t.day == d-1 || t.day == d) {
			kept[t.day-d+1] = t
		}
	}
	a.days = kept
}

// tally returns the slot that counts day, or nil when the account keeps
// none for it: from the first start on, only day D is tallied.
func (a *exploitAcct) tally(day int64) *exploitDay {
	latest := &a.days[1]
	switch {
	case day == latest.day && (a.started || latest.active()):
		return latest
	case a.started:
		return nil
	}
	// Records arrive in time order, so day is later than both kept days:
	// the latest becomes the earlier, and the earlier's buffer is reused.
	a.days[0], a.days[1] = a.days[1], a.days[0]
	latest.reset(day)
	return latest
}

func (d *exploitDay) active() bool { return d.msgs > 0 || d.reports > 0 }

// reset starts the slot over for day, keeping its recipient buffer but
// none of the addresses in it.
func (d *exploitDay) reset(day int64) {
	clear(d.rcpts)
	*d = exploitDay{day: day, rcpts: d.rcpts[:0]}
}

// addRecipients appends rs, compacting once the unsorted tail outgrows
// the distinct prefix, so rcpts holds about twice the distinct recipients
// at most and compaction costs O(log n) per recipient amortized.
func (d *exploitDay) addRecipients(rs []identity.Address) {
	d.rcpts = append(d.rcpts, rs...)
	if len(d.rcpts) > 2*int(d.distinct)+16 {
		d.compact()
	}
}

// compact sorts and deduplicates rcpts and returns the distinct count.
func (d *exploitDay) compact() int {
	slices.Sort(d.rcpts)
	d.rcpts = slices.Compact(d.rcpts)
	d.distinct = int32(len(d.rcpts))
	return len(d.rcpts)
}

// Exploitation snapshots §5.3 from the tallies observed so far, drawing
// Dataset 7's deterministic sample over the distinct hijacked accounts in
// first-HijackStarted order — the same population d7Cases keeps.
func (b *ExploitationBuilder) Exploitation(sampleSize int) Exploitation {
	var volBase, volHijack, rcptBase, rcptHijack, repBase, repHijack int
	var scam, phish, withMsgs, atMostFive, small, customizedSmall, exploitedCases int
	for _, id := range sampleN(7, b.cases, sampleSize) {
		a := &b.accts[b.index[id]]
		scam += int(a.scam)
		phish += int(a.phish)
		if a.sent > 0 {
			withMsgs++
			if a.sent <= 5 {
				atMostFive++
			}
		}
		if a.small {
			small++
		}
		if a.customizedSmall {
			customizedSmall++
		}
		prev, hijack := &a.days[0], &a.days[1]
		if !hijack.active() {
			continue
		}
		exploitedCases++
		volHijack += int(hijack.msgs)
		rcptHijack += hijack.compact()
		repHijack += int(hijack.reports)
		volBase += int(prev.msgs)
		rcptBase += prev.compact()
		repBase += int(prev.reports)
	}
	// Baselines of zero (quiet accounts) are common in a small sim; use
	// per-account averages with a floor so the deltas stay meaningful.
	if volBase == 0 {
		volBase = exploitedCases
	}
	if rcptBase == 0 {
		rcptBase = exploitedCases
	}
	if repBase == 0 {
		repBase = 1
	}
	return Exploitation{
		VolumeDelta:          stats.PercentDelta(float64(volBase), float64(volHijack)),
		RecipientsDelta:      stats.PercentDelta(float64(rcptBase), float64(rcptHijack)),
		ReportsDelta:         stats.PercentDelta(float64(repBase), float64(repHijack)),
		ScamShare:            stats.Ratio(float64(scam), float64(scam+phish)),
		PhishShare:           stats.Ratio(float64(phish), float64(scam+phish)),
		AtMostFiveMessages:   stats.Ratio(float64(atMostFive), float64(withMsgs)),
		SmallCustomizedShare: stats.Ratio(float64(small), float64(withMsgs)),
		CustomizedGivenSmall: stats.Ratio(float64(customizedSmall), float64(small)),
		Cases:                exploitedCases,
	}
}

// ContactRisk is §5.3's cohort experiment: contacts of victims vs random
// active users, hijack rate over the following window (paper: 36×).
type ContactRisk struct {
	ContactCohort int
	RandomCohort  int
	ContactRate   float64
	RandomRate    float64
	Multiplier    float64
}

// ContactRiskBuilder reproduces the Dataset 9 experiment: sample the
// contacts of accounts hijacked *recently* (within recruit of the cutoff,
// as the paper sampled contacts of current hijack cases), sample random
// active users, and count hijacks over the following window. The
// experiment needs the hijack timeline on both sides of the cutoff, so
// the builder buffers the HijackStarted subsequence (hijack-scale) and
// runs the cohort construction at snapshot time.
//
// Finite-population correction: the random cohort excludes contacts of
// *any* pre-cutoff victim. At Google scale a random user sample has
// essentially zero overlap with hijackers' harvested contact pools; in a
// simulated population of tens of thousands the pools would otherwise
// contaminate the control cohort.
type ContactRiskBuilder struct {
	starts []event.HijackStarted
}

// NewContactRiskBuilder returns an empty builder.
func NewContactRiskBuilder() *ContactRiskBuilder { return &ContactRiskBuilder{} }

// Observe folds one event into the hijack timeline.
func (b *ContactRiskBuilder) Observe(e event.Event) {
	if h, ok := e.(event.HijackStarted); ok {
		b.starts = append(b.starts, h)
	}
}

// ContactRisk snapshots the cohort experiment from the hijacks observed so
// far.
func (b *ContactRiskBuilder) ContactRisk(dir *identity.Directory, cutoff time.Time, recruit, window time.Duration, n int) ContactRisk {
	hijackedPre := map[identity.AccountID]bool{}
	recentVictims := map[identity.AccountID]bool{}
	for _, h := range b.starts {
		if !h.When().Before(cutoff) {
			continue
		}
		hijackedPre[h.Account] = true
		if cutoff.Sub(h.When()) <= recruit {
			recentVictims[h.Account] = true
		}
	}
	contactOfAny := map[identity.AccountID]bool{}
	contactOfRecent := map[identity.AccountID]bool{}
	for id := range hijackedPre {
		a := dir.Get(id)
		if a == nil {
			continue
		}
		for _, addr := range a.Contacts {
			cid := dir.Lookup(addr)
			if cid == identity.None || hijackedPre[cid] {
				continue
			}
			contactOfAny[cid] = true
			if recentVictims[id] {
				contactOfRecent[cid] = true
			}
		}
	}
	var contactList, randomList []identity.AccountID
	dir.All(func(a *identity.Account) {
		switch {
		case contactOfRecent[a.ID]:
			contactList = append(contactList, a.ID)
		case !contactOfAny[a.ID] && !hijackedPre[a.ID] && a.Active(cutoff):
			randomList = append(randomList, a.ID)
		}
	})
	contacts := randx.Sample(randx.New(0xD9).Fork("contacts"), contactList, n)
	random := randx.Sample(randx.New(0xD9).Fork("random"), randomList, n)

	hijackedAfter := map[identity.AccountID]bool{}
	for _, h := range b.starts {
		if h.When().After(cutoff) && h.When().Sub(cutoff) <= window {
			hijackedAfter[h.Account] = true
		}
	}
	count := func(cohort []identity.AccountID) int {
		n := 0
		for _, id := range cohort {
			if hijackedAfter[id] {
				n++
			}
		}
		return n
	}
	cr := ContactRisk{ContactCohort: len(contacts), RandomCohort: len(random)}
	cr.ContactRate = stats.Ratio(float64(count(contacts)), float64(len(contacts)))
	cr.RandomRate = stats.Ratio(float64(count(random)), float64(len(random)))
	// With zero hits in the random cohort the multiplier is unbounded;
	// report a conservative lower bound by flooring the random rate at
	// half an event over the cohort.
	denom := cr.RandomRate
	if denom == 0 && len(random) > 0 {
		denom = 0.5 / float64(len(random))
	}
	cr.Multiplier = stats.Ratio(cr.ContactRate, denom)
	return cr
}

// Retention summarizes §5.4's retention-tactic prevalence for one era.
type Retention struct {
	Cases                      int
	LockoutShare               float64
	FilterShare                float64 // paper 2012: 15%
	ReplyToShare               float64 // paper 2012: 26%
	MassDeleteGivenLockout     float64 // paper: 46% (2011) → 1.6% (2012)
	RecoveryChangeGivenLockout float64 // paper: 60% (2011) → 21% (2012)
	TwoSVLockouts              int
}

// RetentionBuilder reproduces the §5.4 tactic measurements from a world's
// hijack cases. The case base is restricted to *exploited* hijacks: the
// paper's high-confidence samples were selected from recovery claims that
// "clearly indicate" manual hijacking — victims who noticed, i.e., whose
// accounts were actually worked, not assessed-and-abandoned.
//
// Every measurement is a per-account membership or count, so the builder
// tracks hijacker tactics for all hijacked accounts as it goes and
// intersects with the Dataset 7 sample at snapshot time. State grows with
// hijacked accounts, not with the log.
type RetentionBuilder struct {
	cases     d7Cases
	exploited map[identity.AccountID]bool
	lockouts  map[identity.AccountID]bool
	filters   map[identity.AccountID]bool
	replyTos  map[identity.AccountID]bool
	deletes   map[identity.AccountID]bool
	recovs    map[identity.AccountID]bool
	twoSV     map[identity.AccountID]int
}

// NewRetentionBuilder returns an empty builder.
func NewRetentionBuilder() *RetentionBuilder {
	return &RetentionBuilder{
		exploited: map[identity.AccountID]bool{},
		lockouts:  map[identity.AccountID]bool{},
		filters:   map[identity.AccountID]bool{},
		replyTos:  map[identity.AccountID]bool{},
		deletes:   map[identity.AccountID]bool{},
		recovs:    map[identity.AccountID]bool{},
		twoSV:     map[identity.AccountID]int{},
	}
}

// Observe folds one event into the per-account tactic state.
func (b *RetentionBuilder) Observe(e event.Event) {
	b.cases.observe(e)
	switch ev := e.(type) {
	case event.HijackAssessed:
		if ev.Exploited {
			b.exploited[ev.Account] = true
		}
	case event.PasswordChanged:
		if ev.Actor == event.ActorHijacker {
			b.lockouts[ev.Account] = true
		}
	case event.FilterCreated:
		if ev.Actor == event.ActorHijacker {
			b.filters[ev.Account] = true
		}
	case event.ReplyToSet:
		if ev.Actor == event.ActorHijacker {
			b.replyTos[ev.Account] = true
		}
	case event.MassDeletion:
		if ev.Actor == event.ActorHijacker {
			b.deletes[ev.Account] = true
		}
	case event.RecoveryChanged:
		if ev.Actor == event.ActorHijacker {
			b.recovs[ev.Account] = true
		}
	case event.TwoSVEnrolled:
		if ev.Actor == event.ActorHijacker {
			b.twoSV[ev.Account]++
		}
	}
}

// Retention snapshots the §5.4 measurements observed so far.
func (b *RetentionBuilder) Retention(sampleSize int) Retention {
	sampled := b.cases.sample(sampleSize)
	inSet := map[identity.AccountID]bool{}
	cases := 0
	for _, a := range b.cases.ids {
		if sampled[a] && b.exploited[a] {
			inSet[a] = true
			cases++
		}
	}
	restrict := func(tactic map[identity.AccountID]bool) map[identity.AccountID]bool {
		out := map[identity.AccountID]bool{}
		for a := range tactic {
			if inSet[a] {
				out[a] = true
			}
		}
		return out
	}
	lockouts := restrict(b.lockouts)
	filters := restrict(b.filters)
	replyTos := restrict(b.replyTos)
	deletes := restrict(b.deletes)
	recChanges := restrict(b.recovs)

	deleteAndLock, recAndLock := 0, 0
	for a := range lockouts {
		if deletes[a] {
			deleteAndLock++
		}
		if recChanges[a] {
			recAndLock++
		}
	}
	twoSV := 0
	for a, n := range b.twoSV {
		if inSet[a] {
			twoSV += n
		}
	}
	return Retention{
		Cases:                      cases,
		LockoutShare:               stats.Ratio(float64(len(lockouts)), float64(cases)),
		FilterShare:                stats.Ratio(float64(len(filters)), float64(cases)),
		ReplyToShare:               stats.Ratio(float64(len(replyTos)), float64(cases)),
		MassDeleteGivenLockout:     stats.Ratio(float64(deleteAndLock), float64(len(lockouts))),
		RecoveryChangeGivenLockout: stats.Ratio(float64(recAndLock), float64(len(lockouts))),
		TwoSVLockouts:              twoSV,
	}
}
