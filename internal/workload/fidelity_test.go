package workload

// Reconstruction fidelity: the acceptance checks for the
// TraceTracker-style fit/regen loop.
//
//   - At 1x, a fitted-and-regenerated trace must reproduce the source's
//     per-user activeness-class shares and per-policy purge totals
//     within 5% of the source replay.
//   - At 10x, a replay of the upscaled trace from its snapfile must
//     equal the replay on its in-memory snapshot.

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/vfs"
)

// replayPolicies runs both policies and returns their results keyed
// "flt"/"activedr".
func replayPolicies(t *testing.T, em *sim.Emulator) map[string]*sim.Result {
	t.Helper()
	flt, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	adrPolicy, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	adr, err := em.Run(adrPolicy)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sim.Result{"flt": flt, "activedr": adr}
}

// replayTotals runs both policies and returns (purged bytes, misses)
// per policy keyed "flt"/"activedr".
func replayTotals(t *testing.T, em *sim.Emulator) map[string][2]int64 {
	t.Helper()
	out := map[string][2]int64{}
	for policy, r := range replayPolicies(t, em) {
		var b int64
		for _, rep := range r.Reports {
			b += rep.PurgedBytes
		}
		out[policy] = [2]int64{b, r.TotalMisses}
	}
	return out
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= tol
}

var fidelityCfg = sim.Config{
	Lifetime:          timeutil.Days(90),
	TriggerInterval:   timeutil.Days(7),
	TargetUtilization: 0.5,
}

// TestReconstructionFidelity1x is the 5% acceptance check, run on the
// bundled IN2P3 sample: fit the adapted trace, regenerate at 1x, and
// compare class shares and per-policy purge totals against the source
// replay.
func TestReconstructionFidelity1x(t *testing.T) {
	src, _ := loadSample(t)
	m, err := Fit(src)
	if err != nil {
		t.Fatal(err)
	}

	// The model must serialize and come back identical — the tracegen
	// -fit / -scale flags pass through this file.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, loaded) {
		t.Fatal("model does not survive the JSON round trip")
	}

	regen, err := Regen(loaded, RegenConfig{Scale: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(regen.Users) != len(src.Users) {
		t.Fatalf("1x regen has %d users, want %d", len(regen.Users), len(src.Users))
	}
	// Snapshot mass is pinned exactly, not just within tolerance: the
	// strata carry exact per-user byte masses.
	if got, want := regen.Snapshot.TotalBytes(), src.Snapshot.TotalBytes(); got != want {
		t.Fatalf("1x regen snapshot bytes = %d, want exactly %d", got, want)
	}
	if got, want := len(regen.Snapshot.Entries), len(src.Snapshot.Entries); got != want {
		t.Fatalf("1x regen snapshot files = %d, want exactly %d", got, want)
	}

	// Class shares: refit the regenerated trace; every class's share
	// must land within 5 percentage points of the source fit.
	refit, err := Fit(regen)
	if err != nil {
		t.Fatal(err)
	}
	srcShares, regenShares := m.ClassShares(), refit.ClassShares()
	for _, class := range []string{ClassDormant, ClassCasual, ClassSteady, ClassPower} {
		if diff := math.Abs(srcShares[class] - regenShares[class]); diff > 0.05 {
			t.Errorf("class %q share drifted %.3f (source %.3f, regen %.3f)",
				class, diff, srcShares[class], regenShares[class])
		}
	}

	// Per-policy purge totals within 5% of the source replay.
	srcEm, err := sim.New(src, fidelityCfg)
	if err != nil {
		t.Fatal(err)
	}
	regenEm, err := sim.New(regen, fidelityCfg)
	if err != nil {
		t.Fatal(err)
	}
	srcTotals := replayTotals(t, srcEm)
	regenTotals := replayTotals(t, regenEm)
	for policy, want := range srcTotals {
		got := regenTotals[policy]
		if !within(float64(got[0]), float64(want[0]), 0.05) {
			t.Errorf("%s purge total %d vs source %d: off by %.1f%%, want <= 5%%",
				policy, got[0], want[0], 100*math.Abs(float64(got[0]-want[0]))/float64(want[0]))
		}
		t.Logf("%s: purged %d (source %d), misses %d (source %d)",
			policy, got[0], want[0], got[1], want[1])
	}
}

// TestRegenDeterminism pins the regeneration contract: same model,
// same config, bit-identical dataset; a different seed varies it.
func TestRegenDeterminism(t *testing.T) {
	src, _ := loadSample(t)
	m, err := Fit(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Regen(m, RegenConfig{Scale: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Regen(m, RegenConfig{Scale: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("regen is not deterministic")
	}
	c, err := Regen(m, RegenConfig{Scale: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Accesses, c.Accesses) {
		t.Fatal("seed did not vary the regenerated accesses")
	}
	// Scale multiplies the population and the snapshot mass exactly.
	if len(a.Users) != 2*len(src.Users) {
		t.Fatalf("2x regen has %d users, want %d", len(a.Users), 2*len(src.Users))
	}
	if got, want := a.Snapshot.TotalBytes(), 2*src.Snapshot.TotalBytes(); got != want {
		t.Fatalf("2x regen snapshot bytes = %d, want exactly %d", got, want)
	}
}

// TestUpscaleReplaysFromSnapfile is the 10x acceptance check:
// regenerate at 10x, write the regenerated snapshot to a snapfile, and
// require the replay from the snapfile-backed VFS to equal the replay
// on the in-memory snapshot, report for report.
func TestUpscaleReplaysFromSnapfile(t *testing.T) {
	src, _ := loadSample(t)
	m, err := Fit(src)
	if err != nil {
		t.Fatal(err)
	}
	const scale = 10
	ds, err := Regen(m, RegenConfig{Scale: scale, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Users) != scale*len(src.Users) {
		t.Fatalf("10x regen has %d users, want %d", len(ds.Users), scale*len(src.Users))
	}
	if len(ds.Snapshot.Entries) != scale*len(src.Snapshot.Entries) {
		t.Fatalf("10x regen has %d snapshot entries, want %d", len(ds.Snapshot.Entries), scale*len(src.Snapshot.Entries))
	}

	snap := filepath.Join(t.TempDir(), "fs.snap")
	if err := vfs.WriteSnapfileFromSnapshot(snap, &ds.Snapshot); err != nil {
		t.Fatal(err)
	}
	sf, err := vfs.OpenSnapfile(snap)
	if err != nil {
		t.Fatal(err)
	}
	base, err := vfs.LoadSnapfileFS(sf)
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if sf.Count() != len(ds.Snapshot.Entries) || sf.Taken() != ds.Snapshot.Taken {
		t.Fatalf("snapfile holds %d entries taken at %d, want %d at %d",
			sf.Count(), sf.Taken(), len(ds.Snapshot.Entries), ds.Snapshot.Taken)
	}

	inMemory, err := sim.New(ds, fidelityCfg)
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := sim.NewWithBase(ds, base, fidelityCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := replayPolicies(t, inMemory), replayPolicies(t, fromSnap)
	for policy, w := range want {
		g := got[policy]
		if len(g.Reports) != len(w.Reports) {
			t.Fatalf("%s: %d reports from the snapfile, %d in memory", policy, len(g.Reports), len(w.Reports))
		}
		var purged int64
		for i := range w.Reports {
			wr, gr := *w.Reports[i], *g.Reports[i]
			wr.Elapsed, gr.Elapsed = 0, 0
			if !reflect.DeepEqual(gr, wr) {
				t.Fatalf("%s report %d differs:\nsnapfile  %+v\nin memory %+v", policy, i, gr, wr)
			}
			purged += wr.PurgedBytes
		}
		if g.TotalMisses != w.TotalMisses {
			t.Errorf("%s: %d misses from the snapfile, %d in memory", policy, g.TotalMisses, w.TotalMisses)
		}
		if purged == 0 {
			t.Errorf("%s purged nothing on the 10x replay", policy)
		}
		t.Logf("10x %s: purged %d bytes, %d misses", policy, purged, w.TotalMisses)
	}
}
