package analysis

import (
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

// Merge folds a later partition's populations into b. Replaying other's
// submissions in order through the same first-wins dedup reproduces the
// sequential pass exactly: an account's earliest submission across
// partitions claims the slot, later duplicates are dropped.
func (b *Figure7Builder) Merge(other *Figure7Builder) {
	for _, a := range other.accesses {
		if _, dup := b.submitted[a.account]; dup {
			continue
		}
		b.submitted[a.account] = len(b.accesses)
		b.accesses = append(b.accesses, a)
	}
	b.logins = append(b.logins, other.logins...)
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
// study, the segmented scan and the live stream bus — feeds it one event
// at a time and finalizes through Figure8, so they cannot drift.
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

// Merge folds a later partition's aggregates into b. Every field is an
// additive count or a set union keyed by IP-day, so partition order
// cannot change the result.
func (b *Figure8Builder) Merge(other *Figure8Builder) {
	for k, n := range other.attempts {
		b.attempts[k] += n
	}
	for k, set := range other.accounts {
		dst := b.accounts[k]
		if dst == nil {
			dst = map[identity.AccountID]bool{}
			b.accounts[k] = dst
		}
		for id := range set {
			dst[id] = true
		}
	}
	b.totalAttempts += other.totalAttempts
	b.okPasswords += other.okPasswords
	b.successes += other.successes
	for d, n := range other.daySuccess {
		b.daySuccess[d] += n
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

// Merge folds a later partition's term counts into b.
func (b *Table3Builder) Merge(other *Table3Builder) {
	b.terms.Merge(&other.terms)
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

// merge appends other's cases that b has not seen, preserving other's
// order. Concatenating partitions in log order through the same dedup
// reproduces the sequential first-HijackStarted order exactly.
func (d *d7Cases) merge(other *d7Cases) {
	for _, id := range other.ids {
		if d.seen[id] {
			continue
		}
		if d.seen == nil {
			d.seen = map[identity.AccountID]bool{}
		}
		d.seen[id] = true
		d.ids = append(d.ids, id)
	}
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

// Merge folds a later partition's buffered populations into b: the case
// dedup replays in order, the event buffers concatenate.
func (b *AssessmentBuilder) Merge(other *AssessmentBuilder) {
	b.cases.merge(&other.cases)
	b.assessed = append(b.assessed, other.assessed...)
	b.opens = append(b.opens, other.opens...)
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

// ExploitationBuilder reproduces §5.3 from Datasets 7 and 8. The §5.3
// join needs the Dataset 7 sample — only drawable once the full case
// population is known — so the builder buffers the three event
// subsequences the join reads (hijack starts, account-originated mail,
// account-attributed spam reports) and aggregates them at snapshot time.
// The buffers grow with attack-plus-account mail volume.
type ExploitationBuilder struct {
	starts  []event.HijackStarted
	msgs    []event.MessageSent
	reports []event.SpamReported
}

// NewExploitationBuilder returns an empty builder.
func NewExploitationBuilder() *ExploitationBuilder { return &ExploitationBuilder{} }

// Observe folds one event into the buffered populations, keeping only
// account-attributed mail and spam reports.
func (b *ExploitationBuilder) Observe(e event.Event) {
	switch ev := e.(type) {
	case event.HijackStarted:
		b.starts = append(b.starts, ev)
	case event.MessageSent:
		if ev.FromAcct != identity.None {
			b.msgs = append(b.msgs, ev)
		}
	case event.SpamReported:
		if ev.FromAcct != identity.None {
			b.reports = append(b.reports, ev)
		}
	}
}

// Merge folds a later partition's buffers into b by concatenation.
func (b *ExploitationBuilder) Merge(other *ExploitationBuilder) {
	b.starts = append(b.starts, other.starts...)
	b.msgs = append(b.msgs, other.msgs...)
	b.reports = append(b.reports, other.reports...)
}

// Exploitation snapshots §5.3 from the populations observed so far,
// drawing Dataset 7's deterministic sample over the distinct hijacked
// accounts in first-HijackStarted order — the same population d7Cases
// keeps.
func (b *ExploitationBuilder) Exploitation(sampleSize int) Exploitation {
	seen := map[identity.AccountID]bool{}
	var ids []identity.AccountID
	for _, h := range b.starts {
		if !seen[h.Account] {
			seen[h.Account] = true
			ids = append(ids, h.Account)
		}
	}
	accounts := sampleN(7, ids, sampleSize)
	inSet := map[identity.AccountID]bool{}
	for _, a := range accounts {
		inSet[a] = true
	}
	hijackDay := map[identity.AccountID]time.Time{}
	for _, h := range b.starts {
		if inSet[h.Account] {
			if _, ok := hijackDay[h.Account]; !ok {
				hijackDay[h.Account] = h.When().Truncate(24 * time.Hour)
			}
		}
	}

	type dayStats struct {
		msgs       int
		recipients map[identity.Address]bool
		reports    int
	}
	perDay := map[identity.AccountID]map[time.Time]*dayStats{}
	ensure := func(acct identity.AccountID, day time.Time) *dayStats {
		if perDay[acct] == nil {
			perDay[acct] = map[time.Time]*dayStats{}
		}
		ds := perDay[acct][day]
		if ds == nil {
			ds = &dayStats{recipients: map[identity.Address]bool{}}
			perDay[acct][day] = ds
		}
		return ds
	}

	var scam, phish, hijackerMsgs int
	msgsPerCase := map[identity.AccountID]int{}
	smallCase := map[identity.AccountID]bool{}
	customizedSmall := map[identity.AccountID]bool{}
	for _, m := range b.msgs {
		if !inSet[m.FromAcct] {
			continue
		}
		day := m.When().Truncate(24 * time.Hour)
		ds := ensure(m.FromAcct, day)
		ds.msgs++
		for _, r := range m.Recipients {
			ds.recipients[r] = true
		}
		if m.Actor == event.ActorHijacker {
			hijackerMsgs++
			msgsPerCase[m.FromAcct]++
			switch m.Class {
			case event.ClassScam:
				scam++
			case event.ClassPhish:
				phish++
			}
			if len(m.Recipients) < 10 {
				smallCase[m.FromAcct] = true
				if m.Customized {
					customizedSmall[m.FromAcct] = true
				}
			}
		}
	}
	for _, r := range b.reports {
		if !inSet[r.FromAcct] {
			continue
		}
		// Attribute the report to the day the message was sent; sending
		// day ≈ report day - reporting delay, so approximate with the
		// hijack-day bucket test below using the report time.
		day := r.When().Truncate(24 * time.Hour)
		ensure(r.FromAcct, day).reports++
	}

	var volBase, volHijack, rcptBase, rcptHijack, repBase, repHijack float64
	exploitedCases := 0
	for acct, day := range hijackDay {
		days := perDay[acct]
		if days == nil {
			continue
		}
		prev := day.Add(-24 * time.Hour)
		h, hasH := days[day]
		p, hasP := days[prev]
		if !hasH {
			continue
		}
		exploitedCases++
		volHijack += float64(h.msgs)
		rcptHijack += float64(len(h.recipients))
		repHijack += float64(h.reports)
		if hasP {
			volBase += float64(p.msgs)
			rcptBase += float64(len(p.recipients))
			repBase += float64(p.reports)
		}
	}
	// Baselines of zero (quiet accounts) are common in a small sim; use
	// per-account averages with a floor so the deltas stay meaningful.
	if volBase == 0 {
		volBase = float64(exploitedCases)
	}
	if rcptBase == 0 {
		rcptBase = float64(exploitedCases)
	}
	if repBase == 0 {
		repBase = 1
	}

	atMostFive := 0
	for _, a := range accounts {
		if n, ok := msgsPerCase[a]; ok && n <= 5 {
			atMostFive++
		}
	}
	casesWithMsgs := len(msgsPerCase)

	return Exploitation{
		VolumeDelta:          stats.PercentDelta(volBase, volHijack),
		RecipientsDelta:      stats.PercentDelta(rcptBase, rcptHijack),
		ReportsDelta:         stats.PercentDelta(repBase, repHijack),
		ScamShare:            stats.Ratio(float64(scam), float64(scam+phish)),
		PhishShare:           stats.Ratio(float64(phish), float64(scam+phish)),
		AtMostFiveMessages:   stats.Ratio(float64(atMostFive), float64(casesWithMsgs)),
		SmallCustomizedShare: stats.Ratio(float64(len(smallCase)), float64(casesWithMsgs)),
		CustomizedGivenSmall: stats.Ratio(float64(len(customizedSmall)), float64(len(smallCase))),
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

// Merge folds a later partition's hijack timeline into b.
func (b *ContactRiskBuilder) Merge(other *ContactRiskBuilder) {
	b.starts = append(b.starts, other.starts...)
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

// Merge folds a later partition's tactic state into b: the case dedup
// replays in order, the per-account sets union, the 2SV counts add.
func (b *RetentionBuilder) Merge(other *RetentionBuilder) {
	b.cases.merge(&other.cases)
	for _, pair := range [][2]map[identity.AccountID]bool{
		{b.exploited, other.exploited}, {b.lockouts, other.lockouts},
		{b.filters, other.filters}, {b.replyTos, other.replyTos},
		{b.deletes, other.deletes}, {b.recovs, other.recovs},
	} {
		dst, src := pair[0], pair[1]
		for a := range src {
			dst[a] = true
		}
	}
	for a, n := range other.twoSV {
		b.twoSV[a] += n
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
