// Package config carries the facility retention presets of the
// paper's Table 1 and shared experiment defaults.
package config

import "activedr/internal/timeutil"

// Facility is one row of Table 1: an HPC site and its production
// fixed-lifetime scratch retention policy.
type Facility struct {
	Name     string
	Scratch  string
	Lifetime timeutil.Duration
}

// Facilities lists the Table 1 presets.
func Facilities() []Facility {
	return []Facility{
		{Name: "NCAR", Scratch: "GLADE", Lifetime: timeutil.Days(120)},
		{Name: "OLCF", Scratch: "Spider", Lifetime: timeutil.Days(90)},
		{Name: "TACC", Scratch: "SCRATCH", Lifetime: timeutil.Days(30)},
		{Name: "NERSC", Scratch: "Lustre scratch", Lifetime: timeutil.Days(12 * 7)},
	}
}

// TargetUtilization is the paper's purge target (§4.1.3): usage is
// brought down to this fraction of capacity. The replay defaults
// (trigger cadence, retrospective passes and decay) live in
// sim.Config.Defaults and retention.Config.Defaults.
const TargetUtilization = 0.5

// PeriodLengths are the lifetime/period sweep of Figures 5 and 9–11.
var PeriodLengths = []timeutil.Duration{
	timeutil.Days(7), timeutil.Days(30), timeutil.Days(60), timeutil.Days(90),
}
