package core

import (
	"manualhijack/internal/geo"
	"manualhijack/internal/playbook"
)

// crewEntry is one roster row: origin, language, relative activity weight,
// and whether the crew uses the 2SV phone-lockout tactic in its era.
type crewEntry struct {
	name     string
	country  geo.Country
	lang     playbook.Language
	weight   float64
	usePhone bool
	// startUTC staggers working hours by rough home-timezone so the fleet
	// covers more of the clock (Asian crews start earlier in UTC terms).
	startUTC int
}

func buildRoster(entries []crewEntry, tactics playbook.Tactics) []CrewSpec {
	specs := make([]CrewSpec, 0, len(entries))
	for _, e := range entries {
		cfg := playbook.DefaultCrewConfig(e.name, e.country, e.lang)
		cfg.WorkStartUTC = e.startUTC
		cfg.Tactics = tactics
		if !e.usePhone {
			cfg.Tactics.TwoSVLockoutRate = 0
		}
		specs = append(specs, CrewSpec{Config: cfg, Weight: e.weight})
	}
	return specs
}

// Roster2011 is the October 2011 crew mix: the West African groups
// dominate; the 2SV phone tactic has not appeared yet.
func Roster2011() []CrewSpec {
	return buildRoster([]crewEntry{
		{"ci-alpha", geo.IvoryCoast, playbook.LangFR, 20, false, 8},
		{"ng-alpha", geo.Nigeria, playbook.LangEN, 18, false, 8},
		{"za-alpha", geo.SouthAfrica, playbook.LangEN, 5, false, 7},
		{"cn-alpha", geo.China, playbook.LangZH, 12, false, 1},
		{"my-alpha", geo.Malaysia, playbook.LangEN, 8, false, 1},
		{"ve-alpha", geo.Venezuela, playbook.LangES, 2, false, 13},
	}, playbook.Tactics2011())
}

// Roster2012 is the November 2012 mix: the same groups, now with the
// short-lived 2SV phone-lockout tactic in use everywhere except the
// Chinese and Malaysian groups (§7: "neither China or Malaysia show up in
// the phone dataset"). The non-CN/MY weights are calibrated so the phone
// country mix reproduces Figure 12 (CI 33.8%, NG 31.4%, ZA 8.4%, FR 6.4%,
// ML 6.1%, IN 3.3%, small VN/AF/VE/BR).
func Roster2012() []CrewSpec {
	return buildRoster([]crewEntry{
		{"ci-alpha", geo.IvoryCoast, playbook.LangFR, 20.0, true, 8},
		{"ng-alpha", geo.Nigeria, playbook.LangEN, 18.0, true, 8},
		{"za-alpha", geo.SouthAfrica, playbook.LangEN, 5.0, true, 7},
		{"fr-alpha", geo.France, playbook.LangFR, 3.8, true, 8},
		{"ml-alpha", geo.Mali, playbook.LangFR, 3.6, true, 8},
		{"in-alpha", geo.India, playbook.LangEN, 2.0, true, 4},
		{"vn-alpha", geo.Vietnam, playbook.LangEN, 1.5, true, 2},
		{"af-alpha", geo.Afghanistan, playbook.LangEN, 1.2, true, 4},
		{"ve-alpha", geo.Venezuela, playbook.LangES, 1.2, true, 13},
		{"br-alpha", geo.Brazil, playbook.LangES, 1.2, true, 12},
		{"cn-alpha", geo.China, playbook.LangZH, 12.0, false, 1},
		{"my-alpha", geo.Malaysia, playbook.LangEN, 8.0, false, 1},
	}, playbook.Tactics2012())
}

// Roster2014 is the January 2014 mix: the Chinese and Malaysian groups now
// dominate the hijack traffic, South Africa holds ~10%, the West African
// groups have shrunk, and the phone tactic is abandoned. The weights
// reproduce Figure 11's IP country mix (CN and MY ≈36% each, ZA ≈9%).
func Roster2014() []CrewSpec {
	return buildRoster([]crewEntry{
		{"cn-alpha", geo.China, playbook.LangZH, 35.7, false, 1},
		{"my-alpha", geo.Malaysia, playbook.LangEN, 35.7, false, 1},
		{"za-alpha", geo.SouthAfrica, playbook.LangEN, 9.1, false, 7},
		{"ci-alpha", geo.IvoryCoast, playbook.LangFR, 3.2, false, 8},
		{"ng-alpha", geo.Nigeria, playbook.LangEN, 3.2, false, 8},
		{"ve-alpha", geo.Venezuela, playbook.LangES, 2.4, false, 13},
		{"us-alpha", geo.US, playbook.LangEN, 2.3, false, 14},
		{"br-alpha", geo.Brazil, playbook.LangES, 2.0, false, 12},
		{"in-alpha", geo.India, playbook.LangEN, 2.1, false, 4},
		{"ml-alpha", geo.Mali, playbook.LangFR, 1.7, false, 8},
		{"af-alpha", geo.Afghanistan, playbook.LangEN, 1.3, false, 4},
		{"vn-alpha", geo.Vietnam, playbook.LangEN, 1.3, false, 2},
	}, playbook.Tactics2014())
}
