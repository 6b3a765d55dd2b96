// Package core assembles the full study world — population, mail and
// login services with their defenses, phishing infrastructure with the
// anti-phishing pipeline, hijacker crews, organic victims, and the
// recovery system — runs the simulation, and exposes the measurement
// harnesses (the decoy-credential experiment, the era-segmented study).
//
// The paper's datasets span 2011–2014 with era-specific hijacker tactics
// and defenses. RunStudy (study.go) models this by running one world per
// observation window (October 2011, November 2012, February 2013, January
// 2014), each with the era's tactics profile, crew roster, and recovery
// configuration, and computing each table/figure from the era-appropriate
// world's logs — mirroring how the original datasets were drawn from
// different time windows of Google's logs.
package core

import (
	"fmt"
	"time"

	"manualhijack/internal/auth"
	"manualhijack/internal/behavior"
	"manualhijack/internal/challenge"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/mail"
	"manualhijack/internal/phishkit"
	"manualhijack/internal/playbook"
	"manualhijack/internal/randx"
	"manualhijack/internal/recovery"
	"manualhijack/internal/risk"
	"manualhijack/internal/safebrowsing"
	"manualhijack/internal/simtime"
	"manualhijack/internal/victim"
)

// CrewSpec is one hijacker crew plus its share of the phished-credential
// flow. Weight is relative: mail-targeted phishing pages are assigned to
// crews proportionally, so a crew's hijack volume tracks its weight — the
// lever that calibrates the attribution figures (11 and 12).
type CrewSpec struct {
	Config playbook.CrewConfig
	Weight float64
}

// ArchetypeSpec fields Count instances of a registered playbook archetype
// (internal/playbook) alongside the manual crews. Weight is each
// instance's share of the mail-targeted phished-credential flow, on the
// same relative scale as CrewSpec.Weight; zero means a default modest
// share so rosters stay calibrated around the manual crews.
type ArchetypeSpec struct {
	Archetype string
	Count     int
	Weight    float64
}

// defaultArchetypeWeight is the per-instance credential-flow share an
// ArchetypeSpec gets when its Weight is zero — small next to the 2012
// manual roster's ~77 total so archetypes ride along without drowning
// out the paper's calibrated crews.
const defaultArchetypeWeight = 4.0

// Config describes one world.
type Config struct {
	Seed  int64
	Start time.Time
	// Days is the observation-window length.
	Days int
	// PopulationN is the organic population size; DecoyN adds
	// study-controlled decoy accounts (no contacts, used by the Dataset 4
	// experiment).
	PopulationN int
	DecoyN      int

	Auth      auth.Config
	RiskW     risk.Weights
	Challenge challenge.Config
	Recovery  recovery.Config
	Victims   victim.Config
	SafeB     safebrowsing.Config
	MailSeed  mail.SeedConfig

	Crews []CrewSpec
	// Archetypes fields additional playbook actors (smash & grab,
	// credential stuffers, ...) next to the manual crews.
	Archetypes []ArchetypeSpec

	// CampaignsPerDay is the mean rate of new phishing campaigns.
	CampaignsPerDay float64
	// LureBase is the base lure-blast size per campaign; the per-target
	// volume is scaled so reported phishing *emails* follow Table 2's
	// email column while *pages* follow its page column.
	LureBase int
	// FormsShare is the fraction of pages hosted on the provider's Forms
	// product (Dataset 3).
	FormsShare float64
	// OutlierShare is the fraction of campaigns with the Figure 6
	// high-volume outlier shape.
	OutlierShare float64
	// CampaignDays limits how long new background campaigns launch; zero
	// means the whole window. The Dataset 9 contact-risk experiment stops
	// background phishing after the cohorts form, so the outcome window
	// isolates the hijacker-driven contact-phishing loop.
	CampaignDays int
	// TwoSVAdoption is the fraction of owners with 2-step verification
	// enabled (own phone); AppPasswordShare is the fraction of those who
	// also created a phishable application-specific password for a legacy
	// client — §8.2's trade-off, exercised by the ablation bench.
	TwoSVAdoption    float64
	AppPasswordShare float64
	// BehavioralDefense runs the §5.2/§8.2 post-login detector *online*,
	// suspending accounts whose sessions match the hijacker playbook. Off
	// by default: the paper-era calibration assumes the detector observes
	// rather than intervenes; the ablation bench flips it on.
	BehavioralDefense bool
	// AuthLogRetentionDays, when positive, erases login records older
	// than the window once per simulated day — the privacy/storage
	// sanitization the paper says forced several datasets to cover only a
	// few weeks despite the three-year study ("Google sanitizes or
	// entirely erases many authentication-related logs within a short
	// time window", §3). Off by default so analyses see full windows.
	AuthLogRetentionDays int
	// Spill, when Dir is set, builds the world's log as spill-to-disk
	// segments instead of one in-RAM slice: peak memory is bounded by the
	// segment size, not the world size, and the sealed log serves reads
	// as a map-reduce over the segment files. Incompatible with
	// AuthLogRetentionDays — spilled segments are immutable. The Meta
	// field is filled from the world's window and seed.
	Spill logstore.SpillConfig
}

// DefaultConfig returns a mid-sized world with the November 2012 era
// profile — the era most of the paper's datasets come from.
func DefaultConfig(seed int64) Config {
	start := time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC)
	return Config{
		Seed:            seed,
		Start:           start,
		Days:            30,
		PopulationN:     8000,
		DecoyN:          0,
		Auth:            auth.DefaultConfig(),
		RiskW:           risk.DefaultWeights(),
		Challenge:       challenge.DefaultConfig(),
		Recovery:        recovery.DefaultConfig(),
		Victims:         victim.DefaultConfig(),
		SafeB:           safebrowsing.DefaultConfig(),
		MailSeed:        mail.DefaultSeedConfig(),
		Crews:           Roster2012(),
		CampaignsPerDay: 4,
		LureBase:        400,
		FormsShare:      0.30,
		OutlierShare:    0.02,
	}
}

// World is an assembled simulation.
type World struct {
	Cfg   Config
	Clock *simtime.Clock
	Log   *logstore.Store
	Dir   *identity.Directory
	Plan  *geo.IPPlan
	Mail  *mail.Service
	Auth  *auth.Service
	Rec   *recovery.Service
	Vict  *victim.Manager
	Inf   *phishkit.Infrastructure
	SB    *safebrowsing.Pipeline
	Crews []*playbook.Crew
	// Actors are the playbook archetypes fielded next to the crews.
	Actors []playbook.Actor
	// Guard is the online behavioral defense (nil unless enabled).
	Guard *Guardian

	rng       *randx.Rand
	sinkPick  *randx.Weighted[phishkit.CredentialSink]
	pageMix   *randx.Weighted[event.TargetKind]
	lureScale map[event.TargetKind]float64
	mailPages []event.PageID
	decoyIDs  []identity.AccountID
	ran       bool
}

// expectedEvents estimates the log volume a world will produce, for
// pre-sizing the store (a hint, not a bound — under-estimates just fall
// back to growth). Calibrated against measured worlds: organic population
// activity runs ~2.4 records per user-day, and each campaign contributes
// roughly LureBase×email-scale lure records plus a thin stream of page
// and hijack events.
func (cfg Config) expectedEvents() int {
	users := cfg.PopulationN + cfg.DecoyN
	organic := float64(users*cfg.Days) * 2.5
	days := cfg.Days
	if cfg.CampaignDays > 0 && cfg.CampaignDays < days {
		days = cfg.CampaignDays
	}
	phishing := cfg.CampaignsPerDay * float64(days) * float64(cfg.LureBase) * 2
	return int(organic+phishing) + 1024
}

// NewWorld assembles a world from cfg.
func NewWorld(cfg Config) *World {
	clock := simtime.NewClock(cfg.Start)
	// Pre-size the event queue from the config's scale hints so
	// steady-state simulation does not reallocate it. The log is pre-sized
	// when Run starts, after a caller that keeps no log has said so.
	clock.Reserve((cfg.PopulationN + cfg.DecoyN) * 2)
	rng := randx.New(cfg.Seed)
	dir := NewStudyDirectory(cfg.Seed, cfg.Start, cfg.PopulationN+cfg.DecoyN)

	log := logstore.New()
	if sp := cfg.Spill; sp.Dir != "" {
		if cfg.AuthLogRetentionDays > 0 {
			panic("core: AuthLogRetentionDays sanitization is incompatible with a spilled log (segments are immutable)")
		}
		if sp.Meta == (logstore.Meta{}) {
			sp.Meta = logstore.Meta{
				Start: cfg.Start,
				End:   cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour),
				Seed:  cfg.Seed,
			}
		}
		if err := log.EnableSpill(sp); err != nil {
			panic("core: enable spill: " + err.Error())
		}
	}
	plan := DefaultIPPlan()

	var analyzer *risk.Analyzer
	if cfg.Auth.RiskEnabled {
		analyzer = risk.NewAnalyzer(plan, cfg.RiskW)
	}
	challenger := challenge.New(cfg.Challenge, rng.Fork("challenge"))
	authSvc := auth.NewService(dir, clock, log, analyzer, challenger, cfg.Auth)

	mailSvc := mail.NewService(dir, clock, log)
	mailSvc.Seed(rng, cfg.MailSeed)

	inf := phishkit.NewInfrastructure(clock, log, dir, plan, rng)
	sb := safebrowsing.NewPipeline(cfg.SafeB, clock, log, inf, rng)
	inf.SetDetector(sb)

	rec := recovery.NewService(cfg.Recovery, clock, log, rng, dir, authSvc, mailSvc)
	vict := victim.NewManager(cfg.Victims, clock, rng, dir, mailSvc, authSvc, rec, plan, log)
	vict.PrimeRisk()

	w := &World{
		Cfg: cfg, Clock: clock, Log: log, Dir: dir, Plan: plan,
		Mail: mailSvc, Auth: authSvc, Rec: rec, Vict: vict, Inf: inf, SB: sb,
		rng: rng.Fork("world"),
	}
	if cfg.BehavioralDefense {
		w.Guard = newGuardian(w, behavior.DefaultConfig())
	}

	// One wiring for every attacker. Crews come first, then archetypes:
	// that order is the credential-sink order and the start order, and
	// simtime breaks same-instant ties FIFO.
	env := playbook.Env{
		Clock: clock, Log: log, Rng: rng, Dir: dir, Mail: mailSvc,
		Auth: authSvc, Inf: inf, Plan: plan, Listener: vict, Recovery: rec,
	}
	var sinks []phishkit.CredentialSink
	var weights []float64
	for _, spec := range cfg.Crews {
		crew := playbook.NewCrew(spec.Config, env)
		w.Crews = append(w.Crews, crew)
		sinks = append(sinks, crew)
		weights = append(weights, spec.Weight)
	}
	for _, spec := range cfg.Archetypes {
		weight := spec.Weight
		if weight <= 0 {
			weight = defaultArchetypeWeight
		}
		for i := 0; i < spec.Count; i++ {
			actor, err := playbook.New(spec.Archetype, fmt.Sprintf("%s-%d", spec.Archetype, i+1), env)
			if err != nil {
				panic("core: " + err.Error())
			}
			w.Actors = append(w.Actors, actor)
			sinks = append(sinks, actor)
			weights = append(weights, weight)
		}
	}
	if len(sinks) > 0 {
		w.sinkPick = randx.NewWeighted(sinks, weights)
	}

	w.pageMix = phishkit.DefaultPageTargetMix()
	// Scale lure volume per target so the reported-email mix follows
	// Table 2's email column given pages follow its page column.
	emailW := map[event.TargetKind]float64{
		event.TargetMail: 35, event.TargetBank: 21, event.TargetAppStore: 16,
		event.TargetSocial: 14, event.TargetOther: 14,
	}
	pageW := map[event.TargetKind]float64{
		event.TargetMail: 27, event.TargetBank: 25, event.TargetAppStore: 17,
		event.TargetSocial: 15, event.TargetOther: 15,
	}
	w.lureScale = make(map[event.TargetKind]float64, len(emailW))
	for k := range emailW {
		w.lureScale[k] = emailW[k] / pageW[k]
	}

	// Decoy accounts: study-controlled, no contacts, empty history value.
	for i := 0; i < cfg.DecoyN; i++ {
		id := identity.AccountID(cfg.PopulationN + i + 1)
		a := dir.Get(id)
		a.Contacts = nil
		w.decoyIDs = append(w.decoyIDs, id)
	}

	// 2-step-verification adoption (with the optional app-password hole).
	if cfg.TwoSVAdoption > 0 {
		adopt := w.rng.Fork("twosv")
		dir.All(func(a *identity.Account) {
			if a.Phone == "" || !adopt.Bool(cfg.TwoSVAdoption) {
				return
			}
			a.TwoSV = true
			a.TwoSVPhone = a.Phone
			if adopt.Bool(cfg.AppPasswordShare) {
				authSvc.CreateAppPassword(a.ID)
			}
		})
	}
	return w
}

// NewStudyDirectory builds the deterministic account population a world
// with (seed, start, n) assembles. Directory generation forks its random
// stream purely from (seed, "identity"), so a standalone process — the
// riskd serving bootstrap — reconstructs byte-identical accounts, home
// countries, and recovery options from the seed alone, the property replay
// parity depends on. n must include any decoy accounts (PopulationN +
// DecoyN).
func NewStudyDirectory(seed int64, start time.Time, n int) *identity.Directory {
	idCfg := identity.DefaultConfig(start)
	idCfg.N = n
	return identity.NewDirectory(randx.New(seed), idCfg)
}

// DefaultIPPlan returns the synthetic IP plan every world is built with.
// The plan is deterministic, which is what lets offline analysis of a
// dumped log (cmd/analyze) geolocate hijacker IPs without the original
// world: reconstructing the plan reproduces the exact address blocks.
func DefaultIPPlan() *geo.IPPlan {
	return geo.NewIPPlan(4)
}

// Tap registers fn to observe every event the world logs, at the moment it
// is appended — the hook the streaming analyses and RunStudy's era
// analyses feed from. Call before Run; fn runs synchronously on the
// simulation goroutine (see logstore.SetTap for the contract).
func (w *World) Tap(fn func(event.Event)) {
	w.Log.SetTap(fn)
}

// End returns the end of the observation window.
func (w *World) End() time.Time {
	return w.Cfg.Start.Add(time.Duration(w.Cfg.Days) * 24 * time.Hour)
}

// DecoyIDs returns the study-controlled decoy accounts.
func (w *World) DecoyIDs() []identity.AccountID {
	return append([]identity.AccountID(nil), w.decoyIDs...)
}

// Run starts every agent, schedules the campaign stream, and drives the
// clock to the end of the window. It can only be called once.
func (w *World) Run() {
	if w.ran {
		panic("core: World.Run called twice")
	}
	w.ran = true
	// Steady-state appends never grow-copy the log. A log Discard made
	// write-only ignores this, and a spilling one caps it at a segment.
	w.Log.Reserve(w.Cfg.expectedEvents())
	end := w.End()
	w.Vict.Start(end)
	for _, crew := range w.Crews {
		crew.Start(end)
	}
	for _, actor := range w.Actors {
		actor.Start(end)
	}
	campaignEnd := end
	if w.Cfg.CampaignDays > 0 {
		campaignEnd = w.Cfg.Start.Add(time.Duration(w.Cfg.CampaignDays) * 24 * time.Hour)
	}
	w.scheduleNextCampaign(campaignEnd)
	if w.Cfg.AuthLogRetentionDays > 0 {
		window := time.Duration(w.Cfg.AuthLogRetentionDays) * 24 * time.Hour
		w.Clock.Every(24*time.Hour, end, func() {
			w.Log.Sanitize(w.Clock.Now(), logstore.Retention{
				Kinds:  []event.Kind{event.KindLogin},
				Window: window,
			})
		})
	}
	w.Clock.RunUntil(end)
	// The window is over and every agent has stopped: freeze the log, so
	// further appends panic and a log that keeps its records can be read
	// from any goroutine.
	w.Log.Seal()
}

// scheduleNextCampaign books campaign launches as a Poisson process.
func (w *World) scheduleNextCampaign(end time.Time) {
	if w.Cfg.CampaignsPerDay <= 0 {
		return
	}
	gap := w.rng.ExpDuration(time.Duration(float64(24*time.Hour) / w.Cfg.CampaignsPerDay))
	next := w.Clock.Now().Add(gap)
	if !next.Before(end) {
		return
	}
	w.Clock.Schedule(next, func() {
		w.launchCampaign()
		w.scheduleNextCampaign(end)
	})
}

// launchCampaign creates one phishing campaign with the study's target
// mix, hosting mix, and (for mail targets) a crew credential sink.
func (w *World) launchCampaign() {
	target := w.pageMix.Choose(w.rng)
	lures := int(float64(w.Cfg.LureBase) * w.lureScale[target] * w.rng.Between(0.5, 1.5))
	c := phishkit.DefaultCampaign(target, lures)
	c.OnForms = w.rng.Bool(w.Cfg.FormsShare)
	c.HasURL = w.rng.Bool(0.62) // §4.1: 62/100 curated emails carried URLs
	c.Outlier = w.rng.Bool(w.Cfg.OutlierShare)
	if c.Outlier {
		// The paper's outlier was a Forms page that survived for days of
		// sustained volume before its takedown.
		c.Lures = lures * 6
		c.OnForms = true
		c.DetectionFactor = 3.5
	}
	if target == event.TargetMail && w.sinkPick != nil {
		c.Sink = w.sinkPick.Choose(w.rng)
	}
	id := w.Inf.Launch(c)
	if target == event.TargetMail {
		w.mailPages = append(w.mailPages, id)
	}
}

// InjectDecoys schedules the Dataset 4 experiment: submit each decoy
// account's credentials to one live mail-targeted phishing page, staggered
// over the given span. It returns the number of scheduled submissions;
// actual landings are visible in the log as CredentialPhished records with
// Decoy set. Call before Run.
func (w *World) InjectDecoys(over time.Duration) int {
	for i, id := range w.decoyIDs {
		id := id
		delay := time.Duration(i+1) * over / time.Duration(len(w.decoyIDs)+1)
		w.Clock.After(delay, func() {
			if page, ok := w.liveMailPage(); ok {
				w.Inf.SubmitDecoy(page, id)
			}
		})
	}
	return len(w.decoyIDs)
}

// liveMailPage picks a random not-yet-taken-down mail-targeted page.
func (w *World) liveMailPage() (event.PageID, bool) {
	// Prune dead pages lazily.
	live := w.mailPages[:0]
	for _, id := range w.mailPages {
		if p := w.Inf.Page(id); p != nil && !p.TakenDown {
			live = append(live, id)
		}
	}
	w.mailPages = live
	if len(live) == 0 {
		return 0, false
	}
	return live[w.rng.Intn(len(live))], true
}
