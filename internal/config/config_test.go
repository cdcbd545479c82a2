package config

import (
	"testing"

	"activedr/internal/timeutil"
)

// TestFacilityPresets pins the Table 1 rows.
func TestFacilityPresets(t *testing.T) {
	want := map[string]timeutil.Duration{
		"NCAR":  timeutil.Days(120),
		"OLCF":  timeutil.Days(90),
		"TACC":  timeutil.Days(30),
		"NERSC": timeutil.Days(84), // 12 weeks
	}
	fs := Facilities()
	if len(fs) != len(want) {
		t.Fatalf("facilities = %d, want %d", len(fs), len(want))
	}
	for _, f := range fs {
		if want[f.Name] != f.Lifetime {
			t.Errorf("%s lifetime = %v, want %v", f.Name, f.Lifetime, want[f.Name])
		}
		if f.Scratch == "" {
			t.Errorf("%s missing scratch name", f.Name)
		}
	}
}

func TestSweepConstants(t *testing.T) {
	if TargetUtilization != 0.5 {
		t.Fatal("paper constants drifted")
	}
	if len(PeriodLengths) != 4 || PeriodLengths[0] != timeutil.Days(7) || PeriodLengths[3] != timeutil.Days(90) {
		t.Fatalf("period sweep = %v", PeriodLengths)
	}
}
