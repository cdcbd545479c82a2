package experiments

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"activedr/internal/sim"
	"activedr/internal/workload"
)

// loadIN2P3Sample adapts the bundled IN2P3 export fixture.
func loadIN2P3Sample(t *testing.T) *Suite {
	t.Helper()
	path := filepath.Join("..", "workload", "testdata", "in2p3_sample.csv")
	ds, rep, err := workload.LoadIN2P3(path, workload.IN2P3Options{Zone: workload.DefaultZone, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("sample fixture quarantined %d records", len(rep.Errors))
	}
	return NewSuite(ds)
}

// TestWorkloadScenario runs the real-trace scenario end to end: source
// replay, 1x fidelity row, and a 2x upscale through the out-of-core
// snapfile path, then renders the report.
func TestWorkloadScenario(t *testing.T) {
	s := loadIN2P3Sample(t)
	res, err := s.WorkloadScenario(WorkloadScenarioConfig{
		Scales:  []int{1, 2},
		Seed:    99,
		SnapDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 3 {
		t.Fatalf("got %d traces, want 3 (source, 1x, 2x)", len(res.Traces))
	}
	src, one, two := res.Traces[0], res.Traces[1], res.Traces[2]
	if src.Scale != 0 || one.Scale != 1 || two.Scale != 2 {
		t.Fatalf("unexpected scale order: %d, %d, %d", src.Scale, one.Scale, two.Scale)
	}
	if one.Users != src.Users || two.Users != 2*src.Users {
		t.Fatalf("user counts: source %d, 1x %d, 2x %d", src.Users, one.Users, two.Users)
	}
	// Snapshot mass is pinned exactly by the strata, at every scale.
	if one.SnapshotBytes != src.SnapshotBytes || two.SnapshotBytes != 2*src.SnapshotBytes {
		t.Fatalf("snapshot bytes: source %d, 1x %d, 2x %d",
			src.SnapshotBytes, one.SnapshotBytes, two.SnapshotBytes)
	}
	if one.OutOfCore || !two.OutOfCore {
		t.Fatalf("out-of-core flags: 1x %v (want false), 2x %v (want true)",
			one.OutOfCore, two.OutOfCore)
	}
	for _, policy := range []string{sim.PolicyFLT, sim.PolicyActiveDR} {
		if src.Purged[policy] == 0 {
			t.Errorf("source replay purged nothing under %s", policy)
		}
		// The 1x row is the fidelity acceptance surface: within 5%.
		if d := math.Abs(one.Delta[policy]); d > 0.05 {
			t.Errorf("1x %s purge delta %.3f exceeds 5%%", policy, d)
		}
		if two.Purged[policy] == 0 {
			t.Errorf("2x out-of-core replay purged nothing under %s", policy)
		}
	}

	var out strings.Builder
	res.Render(&out)
	for _, want := range []string{"activeness-class shares", "per-policy replay totals",
		"source", "regen 1x", "regen 2x", "snapfile"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}
