// Package phishkit simulates the phishing infrastructure manual hijackers
// rely on: hosted phishing pages (including ones abusing the provider's
// Forms product, as in Dataset 3), lure email blasts, victim click/submit
// traffic with realistic HTTP referrers, and the hand-off of captured
// provider credentials to hijacker crews.
//
// The package reproduces the generative processes behind §4:
//
//   - per-page conversion quality spanning the 3%–45% range with a ~14%
//     mean (Figure 5),
//   - click arrivals that decay exponentially from the blast, plus the
//     "high-volume outlier" campaign with a quiet testing period, a step,
//     and a diurnal pattern (Figure 6),
//   - blank referrers for mail-driven traffic with a small webmail
//     remainder (Figure 3),
//   - an .edu-heavy delivered-victim mix, because commodity spam filtering
//     at self-hosted domains passes roughly 10× more lure mail than the
//     big providers (Figure 4, per Kanich et al.),
//   - target-kind mixes for lures and pages (Table 2).
package phishkit

import (
	"fmt"
	"math"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
	"manualhijack/internal/simtime"
)

// Page is one phishing page.
type Page struct {
	ID      event.PageID
	Target  event.TargetKind
	OnForms bool
	// Conversion is the probability a visitor completes the credential
	// form (the page's "quality"; Figure 5).
	Conversion float64
	CreatedAt  time.Time
	Detected   bool
	TakenDown  bool
	// Targeted marks pages fed by an explicit victim list (contact
	// campaigns) rather than a mass blast.
	Targeted bool
	// DetectionFactor scales the anti-phishing pipeline's delay for this
	// page (1 when unset).
	DetectionFactor float64

	sink     CredentialSink
	dropRate float64
}

// Credential is one captured provider credential as the collector sees it:
// the address and whatever password the victim typed. §5.1 observes that
// hijackers end up with a correct password only ~75% of the time (stale or
// mistyped submissions), which surfaces here as a Password that no longer
// matches the account.
type Credential struct {
	Account  identity.AccountID
	Addr     identity.Address
	Password string
	Page     event.PageID
	At       time.Time
	Decoy    bool
}

// CredentialSink receives provider credentials captured by pages —
// normally a hijacker crew's intake queue.
type CredentialSink interface {
	CredentialCaptured(c Credential)
}

// Detector is notified when pages go live so it can schedule detection
// (implemented by the safebrowsing package).
type Detector interface {
	PageCreated(p *Page)
}

// Infrastructure hosts pages and runs campaigns.
type Infrastructure struct {
	clock *simtime.Clock
	log   *logstore.Store
	dir   *identity.Directory
	plan  *geo.IPPlan
	rng   *randx.Rand

	detector Detector
	pages    map[event.PageID]*Page

	nextPage     event.PageID
	nextCampaign int64

	// webVictims is the weighted external-address domain chooser for
	// delivered lures (edu-heavy).
	webVictims *randx.Weighted[string]
	referrers  *randx.Weighted[string]
}

// NewInfrastructure builds the phishing substrate.
func NewInfrastructure(clock *simtime.Clock, log *logstore.Store, dir *identity.Directory, plan *geo.IPPlan, rng *randx.Rand) *Infrastructure {
	domains := identity.ExternalDomains()
	weights := make([]float64, len(domains))
	for i, d := range domains {
		if identity.TLD(identity.Address("x@"+d)) == "edu" {
			// Self-hosted .edu mail: ~10× the delivery rate of filtered
			// providers, and there are 4 edu domains among ~26 — that
			// yields the order-of-magnitude edu dominance of Figure 4.
			weights[i] = 40
		} else {
			weights[i] = 1
		}
	}
	return &Infrastructure{
		clock: clock, log: log, dir: dir, plan: plan,
		rng:        rng.Fork("phishkit"),
		pages:      make(map[event.PageID]*Page),
		webVictims: randx.NewWeighted(domains, weights),
		referrers: randx.NewWeighted(
			// Figure 3's non-blank referrer mix: mostly webmail.
			[]string{"webmail.generic", "mail.yahoo.com", "webmail.other",
				"mail.provider.legacy", "www.provider.test", "outlook.live.com",
				"mail.aol.com", "phishtank.org", "facebook.com", "yandex.ru"},
			[]float64{30, 22, 16, 10, 7, 6, 4, 2, 2, 1},
		),
	}
}

// SetDetector installs the anti-phishing pipeline.
func (inf *Infrastructure) SetDetector(d Detector) { inf.detector = d }

// Page returns a hosted page by ID (nil if unknown).
func (inf *Infrastructure) Page(id event.PageID) *Page { return inf.pages[id] }

// TargetMix weights campaign target kinds. DefaultEmailTargetMix matches
// Table 2's phishing-email column; DefaultPageTargetMix matches the page
// column.
func DefaultEmailTargetMix() *randx.Weighted[event.TargetKind] {
	return randx.NewWeighted(
		[]event.TargetKind{event.TargetMail, event.TargetBank, event.TargetAppStore, event.TargetSocial, event.TargetOther},
		[]float64{35, 21, 16, 14, 14},
	)
}

// DefaultPageTargetMix matches Table 2's phishing-page column.
func DefaultPageTargetMix() *randx.Weighted[event.TargetKind] {
	return randx.NewWeighted(
		[]event.TargetKind{event.TargetMail, event.TargetBank, event.TargetAppStore, event.TargetSocial, event.TargetOther},
		[]float64{27, 25, 17, 15, 15},
	)
}

// Campaign describes one phishing campaign.
type Campaign struct {
	// Target is the kind of credential solicited.
	Target event.TargetKind
	// Lures is the blast size (number of lure emails delivered).
	Lures int
	// OnForms hosts the page on the provider's Forms product (Dataset 3).
	OnForms bool
	// HasURL: lures link to the page; otherwise they ask the victim to
	// reply with credentials (§4.1: 62 of 100 curated emails had URLs).
	HasURL bool
	// Victims optionally fixes the victim list (hijacker crews target the
	// contacts of previous victims this way). When nil, victims are drawn
	// from the web population.
	Victims []identity.Address
	// ProviderVictimShare is the fraction of generated victims who are
	// provider accounts (ignored when Victims is set).
	ProviderVictimShare float64
	// Sink receives captured provider credentials.
	Sink CredentialSink
	// Outlier selects the Figure 6 high-volume shape: a ~15 h quiet
	// period with attacker self-testing, then a step to sustained diurnal
	// volume over several days.
	Outlier bool
	// ClickRate is the probability a delivered lure leads to a page visit
	// (or, for URL-less lures, that the victim replies with credentials).
	ClickRate float64
	// ClickDelayMean is the mean lure-to-click delay. Mass campaigns see
	// fast clicks clustered around delivery; contact-targeted phishing
	// from a hijacked account converts at the victims' mail-checking pace
	// (a day or more).
	ClickDelayMean time.Duration
	// PasswordGoodRate is how often a submitting victim types their real,
	// current password (§5.1: hijackers hold a correct password 75% of
	// the time).
	PasswordGoodRate float64
	// DropRate is the chance a captured credential never reaches the
	// crew — the collector email account or drop box gets suspended
	// (§5.1 cites this to explain decoys that were never accessed).
	DropRate float64
	// Conversion overrides the page's drawn conversion rate when
	// positive. Contact-targeted spear phishing converts far better than
	// mass phishing (Jagatic et al., cited in §4: social phishing
	// succeeded 72% vs 16% for the control).
	Conversion float64
	// DetectionFactor scales the anti-phishing pipeline's detection delay
	// for this campaign's page (>1 = survives longer). The Figure 6
	// outlier ran for several days before its takedown.
	DetectionFactor float64
}

// DefaultCampaign returns a campaign with study defaults for the given
// target and size.
func DefaultCampaign(target event.TargetKind, lures int) Campaign {
	return Campaign{
		Target:              target,
		Lures:               lures,
		HasURL:              true,
		ProviderVictimShare: 0.20,
		ClickRate:           0.28,
		ClickDelayMean:      3 * time.Hour,
		PasswordGoodRate:    0.75,
		DropRate:            0.12,
	}
}

// Launch creates the campaign's page, blasts lures, and schedules victim
// traffic. It returns the page ID.
func (inf *Infrastructure) Launch(c Campaign) event.PageID {
	inf.nextCampaign++
	campaignID := inf.nextCampaign
	now := inf.clock.Now()

	inf.nextPage++
	p := &Page{
		ID:      inf.nextPage,
		Target:  c.Target,
		OnForms: c.OnForms,
		// Mean ≈ 0.14 with a wide spread, clamped to the observed 3–45%.
		Conversion: inf.rng.ClampedNormal(0.13, 0.10, 0.03, 0.45),
		CreatedAt:  now,
	}
	if c.Conversion > 0 {
		p.Conversion = c.Conversion
	}
	p.Targeted = len(c.Victims) > 0
	p.sink = c.Sink
	p.dropRate = c.DropRate
	p.DetectionFactor = c.DetectionFactor
	if p.DetectionFactor <= 0 {
		p.DetectionFactor = 1
	}
	inf.pages[p.ID] = p
	inf.log.Append(event.PageCreated{
		Base: event.Base{Time: now}, Page: p.ID, Target: c.Target,
		Quality: p.Conversion, OnForms: c.OnForms, Targeted: p.Targeted,
	})
	if inf.detector != nil {
		inf.detector.PageCreated(p)
	}

	if c.Outlier {
		inf.scheduleOutlierTesting(p)
	}

	for i := 0; i < c.Lures; i++ {
		victim := inf.pickVictim(c)
		delay := inf.lureDelay(c)
		inf.clock.After(delay, func() { inf.deliverLure(campaignID, p, c, victim) })
	}
	return p.ID
}

// pickVictim chooses a lure recipient.
func (inf *Infrastructure) pickVictim(c Campaign) identity.Address {
	if len(c.Victims) > 0 {
		return randx.Pick(inf.rng, c.Victims)
	}
	if inf.rng.Bool(c.ProviderVictimShare) && inf.dir.Len() > 0 {
		id := identity.AccountID(1 + inf.rng.Intn(inf.dir.Len()))
		return inf.dir.Get(id).Addr
	}
	domain := inf.webVictims.Choose(inf.rng)
	return identity.Address(fmt.Sprintf("user%d@%s", inf.rng.Intn(1_000_000), domain))
}

// lureDelay spaces lure deliveries: a mass blast clustered at the start
// for standard campaigns; for the outlier, the quiet testing period first,
// then deliveries spread over several days.
func (inf *Infrastructure) lureDelay(c Campaign) time.Duration {
	if c.Outlier {
		return 15*time.Hour + inf.rng.DurationBetween(0, 72*time.Hour)
	}
	return inf.rng.ExpDuration(90 * time.Minute)
}

// deliverLure logs the lure and schedules the victim's reaction.
func (inf *Infrastructure) deliverLure(campaignID int64, p *Page, c Campaign, victim identity.Address) {
	pageRef := p.ID
	if !c.HasURL {
		pageRef = 0
	}
	reported := inf.rng.Bool(0.04) // a small share of victims report lures
	inf.log.Append(event.LureSent{
		Base: event.Base{Time: inf.clock.Now()}, Campaign: campaignID,
		Page: pageRef, Victim: victim, Target: c.Target, HasURL: c.HasURL,
		Reported: reported,
	})
	if !inf.rng.Bool(c.ClickRate) {
		return
	}
	// Click delay after reading the lure: exponential, decaying from the
	// blast.
	mean := c.ClickDelayMean
	if mean <= 0 {
		mean = 3 * time.Hour
	}
	delay := inf.rng.ExpDuration(mean)
	if c.Outlier {
		// Sustained diurnal arrivals: re-draw until the arrival hour is
		// plausible for an awake victim.
		delay = inf.diurnalDelay(delay)
	}
	inf.clock.After(delay, func() { inf.visit(p, c, victim) })
}

// diurnalDelay shifts a delay so the resulting wall-clock hour follows a
// day/night cycle (acceptance by hour weight, at most a few retries).
func (inf *Infrastructure) diurnalDelay(d time.Duration) time.Duration {
	for i := 0; i < 4; i++ {
		at := inf.clock.Now().Add(d)
		h := float64(at.Hour())
		// Weight peaks mid-day, troughs at night.
		w := 0.25 + 0.75*(0.5-0.5*math.Cos(2*math.Pi*(h-3)/24))
		if inf.rng.Bool(w) {
			return d
		}
		d += inf.rng.DurationBetween(2*time.Hour, 8*time.Hour)
	}
	return d
}

// visit records the GET (and possible POST) on a live page.
func (inf *Infrastructure) visit(p *Page, c Campaign, victim identity.Address) {
	if p.TakenDown {
		return
	}
	now := inf.clock.Now()
	referrer := ""
	if inf.rng.Bool(0.008) { // >99% of referrers are blank (Figure 3)
		referrer = inf.referrers.Choose(inf.rng)
	}
	ip := inf.plan.Addr(inf.rng, randx.Pick(inf.rng, geo.AllCountries()))
	inf.log.Append(event.PageHit{
		Base: event.Base{Time: now}, Page: p.ID, Method: "GET",
		Referrer: referrer, IP: ip,
	})
	if !inf.rng.Bool(p.Conversion) {
		return
	}
	inf.log.Append(event.PageHit{
		Base: event.Base{Time: now}, Page: p.ID, Method: "POST",
		Referrer: referrer, Victim: victim, IP: ip,
	})
	inf.captureCredential(p, c, victim, false)
}

// captureCredential hands a provider credential to the page's sink. Only
// mail-targeted pages against provider accounts feed manual hijacking.
func (inf *Infrastructure) captureCredential(p *Page, c Campaign, victim identity.Address, decoy bool) {
	id := inf.dir.Lookup(victim)
	if id == identity.None || p.Target != event.TargetMail {
		return
	}
	now := inf.clock.Now()
	inf.log.Append(event.CredentialPhished{
		Base: event.Base{Time: now}, Account: id, Page: p.ID, Decoy: decoy,
	})
	if p.sink == nil || inf.rng.Bool(p.dropRate) {
		return
	}
	acct := inf.dir.Get(id)
	password := acct.Password
	if !decoy && !inf.rng.Bool(c.PasswordGoodRate) {
		password += "-stale" // outdated or mistyped submission
	}
	// Legacy-client users sometimes type the application-specific
	// password they use daily — which bypasses 2-step verification
	// (§8.2's "those passwords can be phished").
	if !decoy && len(acct.AppPasswords) > 0 && inf.rng.Bool(0.5) {
		password = acct.AppPasswords[inf.rng.Intn(len(acct.AppPasswords))]
	}
	p.sink.CredentialCaptured(Credential{
		Account: id, Addr: victim, Password: password, Page: p.ID,
		At: now, Decoy: decoy,
	})
}

// SubmitDecoy injects a decoy credential into a page, as the study's
// Dataset 4 experiment did with 200 manually submitted fake credentials.
// The decoy flows to the page's sink like a real catch.
func (inf *Infrastructure) SubmitDecoy(pageID event.PageID, decoyAccount identity.AccountID) bool {
	p := inf.pages[pageID]
	if p == nil || p.TakenDown {
		return false
	}
	acct := inf.dir.Get(decoyAccount)
	if acct == nil {
		return false
	}
	now := inf.clock.Now()
	ip := inf.plan.Addr(inf.rng, geo.US)
	inf.log.Append(event.PageHit{
		Base: event.Base{Time: now}, Page: p.ID, Method: "GET", IP: ip,
	})
	inf.log.Append(event.PageHit{
		Base: event.Base{Time: now}, Page: p.ID, Method: "POST",
		Victim: acct.Addr, IP: ip,
	})
	inf.log.Append(event.CredentialPhished{
		Base: event.Base{Time: now}, Account: decoyAccount, Page: p.ID, Decoy: true,
	})
	if p.sink != nil && !inf.rng.Bool(p.dropRate) {
		p.sink.CredentialCaptured(Credential{
			Account: decoyAccount, Addr: acct.Addr, Password: acct.Password,
			Page: p.ID, At: now, Decoy: true,
		})
	}
	return true
}

// Takedown disables a page (called by the anti-phishing pipeline).
func (inf *Infrastructure) Takedown(id event.PageID) {
	p := inf.pages[id]
	if p == nil || p.TakenDown {
		return
	}
	p.TakenDown = true
	inf.log.Append(event.PageTakedown{Base: event.Base{Time: inf.clock.Now()}, Page: id})
}

// MarkDetected records detection (called by the anti-phishing pipeline,
// which logs the PageDetected event itself).
func (inf *Infrastructure) MarkDetected(id event.PageID) {
	if p := inf.pages[id]; p != nil {
		p.Detected = true
	}
}

// scheduleOutlierTesting emits the attacker's own test hits during the
// quiet period before the outlier campaign's step (Figure 6, bottom).
func (inf *Infrastructure) scheduleOutlierTesting(p *Page) {
	tests := 2 + inf.rng.Intn(4)
	for i := 0; i < tests; i++ {
		delay := inf.rng.DurationBetween(5*time.Minute, 14*time.Hour)
		inf.clock.After(delay, func() {
			if p.TakenDown {
				return
			}
			inf.log.Append(event.PageHit{
				Base: event.Base{Time: inf.clock.Now()}, Page: p.ID,
				Method: "GET", IP: inf.plan.Addr(inf.rng, geo.Nigeria),
			})
		})
	}
}
