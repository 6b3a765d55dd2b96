package analysis

import (
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/stats"
)

// Figure11 is the country mix of IPs involved in hijack cases
// (Dataset 13; paper: China and Malaysia dominate, South Africa ≈10%).
type Figure11 struct {
	Shares []stats.Entry
	Cases  int
}

// Figure11Builder reproduces Figure 11 by geolocating one login IP per
// hijack case. It keeps one login per hijack case — Dataset 13's
// population (the paper's IPs of 3000 hijack cases, January 2014),
// accumulated in log order, so the sample drawn at snapshot time is the
// same whichever path fed the builder. State grows with hijack cases, not
// with the log.
type Figure11Builder struct {
	seen  map[identity.AccountID]bool
	cases []event.Login
}

// NewFigure11Builder returns an empty builder.
func NewFigure11Builder() *Figure11Builder {
	return &Figure11Builder{seen: map[identity.AccountID]bool{}}
}

// Observe folds one event into the case list: the first successful
// hijacker login per account defines the case's IP.
func (b *Figure11Builder) Observe(e event.Event) {
	l, ok := e.(event.Login)
	if !ok || l.Actor != event.ActorHijacker ||
		l.Outcome != event.LoginSuccess || b.seen[l.Account] {
		return
	}
	b.seen[l.Account] = true
	b.cases = append(b.cases, l)
}

// Figure11 snapshots the figure from the cases observed so far, sampling
// with Dataset 13's deterministic stream and geolocating against plan.
func (b *Figure11Builder) Figure11(plan *geo.IPPlan, cases int) Figure11 {
	var c stats.Counter
	for _, l := range sampleN(13, b.cases, cases) {
		c.Add(string(plan.Locate(l.IP)))
	}
	return Figure11{Shares: c.Sorted(), Cases: c.Total()}
}

// Figure12 is the country mix of phones hijackers enrolled for 2SV
// lockouts (Dataset 14; paper: CI 33.8%, NG 31.4%, ZA 8.4%, FR 6.4%).
type Figure12 struct {
	Shares []stats.Entry
	Phones int
}

// Figure12Builder reproduces Figure 12 by parsing phone country codes: it
// accumulates Dataset 14's population (hijacker 2SV enrollments, in log
// order) and draws the dataset's deterministic sample at snapshot time.
type Figure12Builder struct {
	enrolls []event.TwoSVEnrolled
}

// NewFigure12Builder returns an empty builder.
func NewFigure12Builder() *Figure12Builder { return &Figure12Builder{} }

// Observe folds one event into the Dataset 14 population.
func (b *Figure12Builder) Observe(e event.Event) {
	if ev, ok := e.(event.TwoSVEnrolled); ok && ev.Actor == event.ActorHijacker {
		b.enrolls = append(b.enrolls, ev)
	}
}

// Figure12 snapshots the figure from the enrollments observed so far.
func (b *Figure12Builder) Figure12(n int) Figure12 {
	var c stats.Counter
	for _, e := range sampleN(14, b.enrolls, n) {
		c.Add(string(geo.PhoneCountry(e.Phone)))
	}
	return Figure12{Shares: c.Sorted(), Phones: c.Total()}
}

// BaseRates holds §3's headline volume numbers.
type BaseRates struct {
	// HijacksPerMillionActivePerDay is the manual-hijack incidence rate
	// (paper: ≈9 per million active users per day in 2012–2013).
	HijacksPerMillionActivePerDay float64
	Hijacks                       int
	ActiveAccounts                int
	Days                          float64
	// PagesPerWeek is the anti-phishing pipeline's weekly detection volume
	// (paper, at Google scale: 16,000–25,000/week).
	PagesPerWeek []int
}

// BaseRatesBuilder reproduces §3's rates from the distinct-victim set and
// the weekly detection series, anchored at the window start.
type BaseRatesBuilder struct {
	hijacked map[int32]bool
	weekly   *stats.TimeSeries
}

// NewBaseRatesBuilder returns an empty builder for a window starting at
// start.
func NewBaseRatesBuilder(start time.Time) *BaseRatesBuilder {
	return &BaseRatesBuilder{
		hijacked: map[int32]bool{},
		weekly:   stats.NewTimeSeries(start, 7*24*time.Hour),
	}
}

// Observe folds one event into the rate aggregates.
func (b *BaseRatesBuilder) Observe(e event.Event) {
	switch ev := e.(type) {
	case event.HijackStarted:
		b.hijacked[int32(ev.Account)] = true
	case event.PageDetected:
		b.weekly.Observe(ev.When())
	}
}

// BaseRates snapshots the rates observed so far. activeAccounts is the
// number of accounts active in the window (the paper's 30-day
// definition); it comes from the directory, not the log.
func (b *BaseRatesBuilder) BaseRates(start, end time.Time, activeAccounts int) BaseRates {
	days := end.Sub(start).Hours() / 24
	out := BaseRates{
		Hijacks:        len(b.hijacked),
		ActiveAccounts: activeAccounts,
		Days:           days,
		PagesPerWeek:   b.weekly.Counts(),
	}
	if activeAccounts > 0 && days > 0 {
		out.HijacksPerMillionActivePerDay =
			float64(len(b.hijacked)) / (float64(activeAccounts) / 1e6) / days
	}
	return out
}
