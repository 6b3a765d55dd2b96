// Package analysis computes every table and figure of the paper from a
// world's event log. Each analysis is a builder: it folds events in one at
// a time and returns a typed result from a snapshot method, which the
// report package renders and the benchmark harness asserts shape
// properties on. Fold runs a builder over a whole log.
//
// As they fold, the builders rebuild the Table 1 datasets they draw from,
// each with the original's source, filtering and sampling step. That
// includes the manual curation the authors describe ("both computers and
// humans alike are imprecise at distinguishing phishing ... from scams and
// other bulk spam"), which here separates ground-truth lures from the
// noisy user-report stream the same way a human reviewer would. Sampling
// is deterministic per dataset id, so a given world always yields the
// same samples.
package analysis

import (
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/stats"
)

// Table2 is the phishing-target breakdown (Table 2): what account types
// phishing emails and phishing pages solicit.
type Table2 struct {
	EmailShares map[event.TargetKind]float64
	PageShares  map[event.TargetKind]float64
	EmailN      int
	PageN       int
}

// PhishSampleBuilder reproduces Table 2 and the §4.1 URL share from
// Datasets 1 and 2, accumulated incrementally: the curated reported-lure
// stream and the detected-page join.
//
// Dataset 1 keeps, from the stream of user-reported mail, the actual
// credential solicitations (the curation step). Lures from targeted
// (contact-campaign) pages are excluded: at provider scale, mass phishing
// dwarfs contact-targeted volume in the reported stream, but the
// simulation boosts the contact loop for statistical power, which would
// otherwise skew the Table 2 target mix. Dataset 2 is the pages the
// anti-phishing pipeline detected, joined back to their creation records;
// targeted spear-phishing pages are excluded, because Dataset 2 comes from
// pages found "while indexing the web", and victim-list pages are mailed
// directly rather than linked anywhere crawlable.
//
// Both joins run as the records arrive: a page is always created before
// its lures, hits and detection (the simulation emits them causally), so
// by the time a lure or a detection is observed its page's creation record
// has been.
type PhishSampleBuilder struct {
	targeted map[event.PageID]bool
	created  map[event.PageID]event.PageCreated
	reported []event.LureSent    // reported lures of untargeted pages
	detected []event.PageCreated // detected untargeted pages, detection order
}

// NewPhishSampleBuilder returns an empty builder.
func NewPhishSampleBuilder() *PhishSampleBuilder {
	return &PhishSampleBuilder{
		targeted: map[event.PageID]bool{},
		created:  map[event.PageID]event.PageCreated{},
	}
}

// Observe folds one event into the Dataset 1/2 populations.
func (b *PhishSampleBuilder) Observe(e event.Event) {
	switch ev := e.(type) {
	case event.PageCreated:
		if ev.Targeted {
			b.targeted[ev.Page] = true
		} else {
			b.created[ev.Page] = ev
		}
	case event.LureSent:
		if ev.Reported && !b.targeted[ev.Page] {
			b.reported = append(b.reported, ev)
		}
	case event.PageDetected:
		if c, ok := b.created[ev.Page]; ok {
			b.detected = append(b.detected, c)
		}
	}
}

// Table2 snapshots Table 2 from the populations observed so far, drawing
// Datasets 1 and 2's deterministic samples.
func (b *PhishSampleBuilder) Table2(sampleSize int) Table2 {
	emails := sampleN(1, b.reported, sampleSize)
	pages := sampleN(2, b.detected, sampleSize)

	var ec, pc stats.Counter
	for _, e := range emails {
		ec.Add(string(e.Target))
	}
	for _, p := range pages {
		pc.Add(string(p.Target))
	}
	t := Table2{
		EmailShares: make(map[event.TargetKind]float64),
		PageShares:  make(map[event.TargetKind]float64),
		EmailN:      len(emails),
		PageN:       len(pages),
	}
	for _, k := range []event.TargetKind{event.TargetMail, event.TargetBank,
		event.TargetAppStore, event.TargetSocial, event.TargetOther} {
		t.EmailShares[k] = ec.Share(string(k))
		t.PageShares[k] = pc.Share(string(k))
	}
	return t
}

// URLShare snapshots the fraction of curated phishing emails carrying a
// URL (§4.1: 62 of 100) over the Dataset 1 sample observed so far.
func (b *PhishSampleBuilder) URLShare(sampleSize int) float64 {
	emails := sampleN(1, b.reported, sampleSize)
	withURL := 0
	for _, e := range emails {
		if e.HasURL {
			withURL++
		}
	}
	return stats.Ratio(float64(withURL), float64(len(emails)))
}

// Figure3 is the HTTP-referrer breakdown of phishing-page traffic.
type Figure3 struct {
	BlankShare float64
	NonBlank   []stats.Entry
	TotalGETs  int
}

// d3Pages tracks Dataset 3's join incrementally: one aggregate of type T
// per Forms-created page, takedown eligibility (the dataset keeps only
// Forms-hosted pages that were taken down, with their HTTP request logs),
// and the dataset's deterministic page sample. The per-page aggregates
// replace Dataset 3's materialized HTTP logs, so builder state grows with
// pages, not hits.
type d3Pages[T any] struct {
	pages map[event.PageID]*d3Page[T]
}

type d3Page[T any] struct {
	id        event.PageID
	takenDown bool
	agg       T
}

func newD3Pages[T any]() *d3Pages[T] {
	return &d3Pages[T]{pages: map[event.PageID]*d3Page[T]{}}
}

// observe routes page lifecycle events. For a PageHit on a tracked page it
// returns the page's aggregate for the caller to update; ok is false
// otherwise.
func (d *d3Pages[T]) observe(e event.Event) (agg *d3Page[T], hit event.PageHit, ok bool) {
	switch ev := e.(type) {
	case event.PageCreated:
		if ev.OnForms {
			d.pages[ev.Page] = &d3Page[T]{id: ev.Page}
		}
	case event.PageTakedown:
		if p, tracked := d.pages[ev.Page]; tracked {
			p.takenDown = true
		}
	case event.PageHit:
		if p, tracked := d.pages[ev.Page]; tracked {
			return p, ev, true
		}
	}
	return nil, event.PageHit{}, false
}

// sample draws Dataset 3's deterministic sample over the eligible
// (taken-down) pages observed so far, in page id order.
func (d *d3Pages[T]) sample(n int) []*d3Page[T] {
	var eligible []*d3Page[T]
	for _, p := range d.pages {
		if p.takenDown {
			eligible = append(eligible, p)
		}
	}
	for i := 1; i < len(eligible); i++ {
		for j := i; j > 0 && eligible[j].id < eligible[j-1].id; j-- {
			eligible[j], eligible[j-1] = eligible[j-1], eligible[j]
		}
	}
	return sampleN(3, eligible, n)
}

// fig3Agg is one page's referrer profile.
type fig3Agg struct {
	blank, total int
	nonBlank     stats.Counter
}

// Figure3Builder reproduces Figure 3 from Dataset 3's HTTP logs.
type Figure3Builder struct {
	pages *d3Pages[fig3Agg]
}

// NewFigure3Builder returns an empty builder.
func NewFigure3Builder() *Figure3Builder {
	return &Figure3Builder{pages: newD3Pages[fig3Agg]()}
}

// Observe folds one event into the per-page referrer counts.
func (b *Figure3Builder) Observe(e event.Event) {
	p, h, ok := b.pages.observe(e)
	if !ok || h.Method != "GET" {
		return
	}
	p.agg.total++
	if h.Referrer == "" {
		p.agg.blank++
	} else {
		p.agg.nonBlank.Add(h.Referrer)
	}
}

// Figure3 snapshots the figure over the sampled pages observed so far.
func (b *Figure3Builder) Figure3(samplePages int) Figure3 {
	var blank, total int
	var nonBlank stats.Counter
	for _, p := range b.pages.sample(samplePages) {
		blank += p.agg.blank
		total += p.agg.total
		nonBlank.Merge(&p.agg.nonBlank)
	}
	return Figure3{
		BlankShare: stats.Ratio(float64(blank), float64(total)),
		NonBlank:   nonBlank.Sorted(),
		TotalGETs:  total,
	}
}

// Figure4 is the TLD breakdown of phished email addresses.
type Figure4 struct {
	Shares   []stats.Entry
	EduShare float64
	N        int
}

// Figure4Builder reproduces Figure 4 from Dataset 3's POST payloads: a
// TLD counter per page, merged over the page sample at snapshot time.
type Figure4Builder struct {
	pages *d3Pages[stats.Counter]
}

// NewFigure4Builder returns an empty builder.
func NewFigure4Builder() *Figure4Builder {
	return &Figure4Builder{pages: newD3Pages[stats.Counter]()}
}

// Observe folds one event into the per-page TLD counts.
func (b *Figure4Builder) Observe(e event.Event) {
	p, h, ok := b.pages.observe(e)
	if !ok || h.Method != "POST" || h.Victim == "" {
		return
	}
	if tld := identity.TLD(h.Victim); tld != "" {
		p.agg.Add(tld)
	}
}

// Figure4 snapshots the figure over the sampled pages observed so far.
func (b *Figure4Builder) Figure4(samplePages int) Figure4 {
	var c stats.Counter
	for _, p := range b.pages.sample(samplePages) {
		c.Merge(&p.agg)
	}
	return Figure4{Shares: c.Sorted(), EduShare: c.Share("edu"), N: c.Total()}
}

// Figure5 is the per-page submission success rate (POST/GET).
type Figure5 struct {
	PerPage []float64
	Mean    float64
	Min     float64
	Max     float64
}

// fig5Agg is one page's request-method tally.
type fig5Agg struct {
	gets, posts int
}

// Figure5Builder reproduces Figure 5 from Dataset 3's per-page request
// methods.
type Figure5Builder struct {
	pages *d3Pages[fig5Agg]
}

// NewFigure5Builder returns an empty builder.
func NewFigure5Builder() *Figure5Builder {
	return &Figure5Builder{pages: newD3Pages[fig5Agg]()}
}

// Observe folds one event into the per-page GET/POST counts.
func (b *Figure5Builder) Observe(e event.Event) {
	p, h, ok := b.pages.observe(e)
	if !ok {
		return
	}
	switch h.Method {
	case "GET":
		p.agg.gets++
	case "POST":
		p.agg.posts++
	}
}

// Figure5 snapshots the figure over the sampled pages observed so far.
// Pages with fewer than minViews GET requests are skipped (a rate over
// three views is noise).
func (b *Figure5Builder) Figure5(samplePages, minViews int) Figure5 {
	var rates stats.Sample
	var out Figure5
	for _, p := range b.pages.sample(samplePages) {
		if p.agg.gets < minViews {
			continue
		}
		r := float64(p.agg.posts) / float64(p.agg.gets)
		out.PerPage = append(out.PerPage, r)
		rates.Add(r)
	}
	out.Mean = rates.Mean()
	out.Min = rates.Min()
	out.Max = rates.Max()
	return out
}

// Figure6 is the credential-submission time profile: the average hourly
// POST volume per standard page (a decay from the blast), and the
// high-volume outlier's own series with its quiet testing period.
type Figure6 struct {
	// StandardAvg is the mean POSTs per page per hour since first visit.
	StandardAvg []float64
	// Outlier is the hourly POST series of the single busiest page.
	Outlier []int
	// OutlierQuietHours is how long the busiest page sat nearly idle
	// before its volume step.
	OutlierQuietHours int
	Pages             int
}

// fig6Agg is one Forms page's live aggregate: the hourly POST series
// anchored at its first hit, and the count of POSTs landing more than 12
// hours after that first hit (the outlier signal).
type fig6Agg struct {
	first  time.Time
	series *stats.TimeSeries
	late   int
}

// Figure6Builder reproduces Figure 6 from Dataset 3. It mirrors Dataset
// 3's join (Forms pages that were taken down, with their HTTP
// logs) as per-page aggregates, so state grows with pages, not hits.
// Events must arrive in time order — the first hit anchors each page's
// hourly series — which both the sealed log and the stream bus guarantee.
type Figure6Builder struct {
	pages *d3Pages[fig6Agg]
}

// NewFigure6Builder returns an empty builder.
func NewFigure6Builder() *Figure6Builder {
	return &Figure6Builder{pages: newD3Pages[fig6Agg]()}
}

// Observe folds one event into the per-page aggregates.
func (b *Figure6Builder) Observe(e event.Event) {
	p, h, ok := b.pages.observe(e)
	if !ok {
		return
	}
	if p.agg.series == nil {
		p.agg.first = h.When()
		p.agg.series = stats.NewTimeSeries(p.agg.first, time.Hour)
	}
	if h.Method == "POST" {
		p.agg.series.Observe(h.When())
		if h.When().Sub(p.agg.first) > 12*time.Hour {
			p.agg.late++
		}
	}
}

// Figure6 snapshots the figure from the pages observed so far, drawing
// Dataset 3's deterministic sample over the eligible (taken-down) pages.
func (b *Figure6Builder) Figure6(samplePages int) Figure6 {
	pages := b.pages.sample(samplePages)

	var fig Figure6

	// Identify the outlier: the page with the most submissions arriving
	// more than 12 hours after its first visit. Standard mass-blast pages
	// decay within hours; only the step-shaped outlier keeps sustained
	// volume (Figure 6, bottom).
	busiest, busiestLate := -1, 0
	for i, p := range pages {
		if p.agg.series == nil {
			continue
		}
		if p.agg.late > busiestLate {
			busiest, busiestLate = i, p.agg.late
		}
	}

	var sums []float64
	counts := 0
	for i, p := range pages {
		if p.agg.series == nil {
			continue
		}
		if i == busiest {
			fig.Outlier = p.agg.series.Counts()
			fig.OutlierQuietHours = quietHours(p.agg.series.Counts())
			continue
		}
		counts++
		for j, c := range p.agg.series.Counts() {
			for len(sums) <= j {
				sums = append(sums, 0)
			}
			sums[j] += float64(c)
		}
	}
	if counts > 0 {
		for _, sum := range sums {
			fig.StandardAvg = append(fig.StandardAvg, sum/float64(counts))
		}
	}
	fig.Pages = len(pages)
	return fig
}

// quietHours counts leading buckets before the series reaches 20% of its
// peak — the outlier's pre-launch testing period.
func quietHours(counts []int) int {
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		return len(counts)
	}
	threshold := peak / 5
	for i, c := range counts {
		if c > threshold {
			return i
		}
	}
	return len(counts)
}

// SafeBrowsingWeekly returns detected phishing pages per week (§3 reports
// 16,000–25,000/week at Google scale; the sim reports its own scale).
func SafeBrowsingWeekly(s *logstore.Store, start time.Time) []int {
	series := stats.NewTimeSeries(start, 7*24*time.Hour)
	for _, d := range logstore.Select[event.PageDetected](s) {
		series.Observe(d.When())
	}
	return series.Counts()
}
