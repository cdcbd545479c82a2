package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"activedr/internal/parallel"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/vfs"
)

// normalizeComparison zeroes the wall-clock fields so deterministic
// replay state can be compared across scheduling orders.
func normalizeComparison(c *sim.Comparison) {
	for _, res := range []*sim.Result{c.FLT, c.ActiveDR} {
		res.Elapsed = 0
		for _, r := range res.Reports {
			r.Elapsed = 0
		}
	}
}

// TestPrecomputeMatchesSerial is the parallel-replay contract: running
// the lifetime sweep concurrently on the pool must yield comparisons
// bit-identical to computing them one at a time, since each task
// replays on its own emulator and cloned file system.
func TestPrecomputeMatchesSerial(t *testing.T) {
	lifetimes := []timeutil.Duration{timeutil.Days(30), timeutil.Days(90), timeutil.Days(90)}

	par, err := NewSyntheticSuite(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Precompute(parallel.NewPool(4), lifetimes); err != nil {
		t.Fatal(err)
	}

	ser := NewSuite(par.Dataset())
	for _, d := range lifetimes {
		pc, err := par.comparison(d) // cache hit from Precompute
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ser.comparison(d)
		if err != nil {
			t.Fatal(err)
		}
		normalizeComparison(pc)
		normalizeComparison(sc)
		if !reflect.DeepEqual(pc, sc) {
			t.Errorf("lifetime %v: parallel and serial comparisons diverge", d)
		}
	}
}

// sameResult compares two replay results the way the sim equivalence
// suite does: DeepEqual on everything but wall clocks and the file
// systems, then the file systems by their observable snapshot entries
// (a lane-materialized FS is semantically identical to a sequentially
// built one but lays out its index differently).
func sameResult(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	w, g := *want, *got
	w.Elapsed, g.Elapsed = 0, 0
	w.Final, g.Final = nil, nil
	w.Captured, g.Captured = nil, nil
	if !reflect.DeepEqual(&w, &g) {
		t.Errorf("%s: results diverge", label)
	}
	for _, fs := range []struct {
		name      string
		want, got *vfs.FS
	}{{"final", want.Final, got.Final}, {"captured", want.Captured, got.Captured}} {
		if (fs.want == nil) != (fs.got == nil) {
			t.Errorf("%s: %s state presence diverges", label, fs.name)
			continue
		}
		if fs.want != nil && !reflect.DeepEqual(fs.want.Snapshot(0).Entries, fs.got.Snapshot(0).Entries) {
			t.Errorf("%s: %s file-system states diverge", label, fs.name)
		}
	}
}

// TestPrecomputeMultiplexedMatchesSerial pins the same contract for the
// single-pass sweep: one multiplexed replay over all lifetimes must
// fill the cache with comparisons equivalent to dedicated sequential
// replays.
func TestPrecomputeMultiplexedMatchesSerial(t *testing.T) {
	lifetimes := []timeutil.Duration{timeutil.Days(30), timeutil.Days(90), timeutil.Days(90)}

	mux, err := NewSyntheticSuite(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := mux.PrecomputeMultiplexed(lifetimes); err != nil {
		t.Fatal(err)
	}

	ser := NewSuite(mux.Dataset())
	for _, d := range lifetimes {
		mc, err := mux.comparison(d) // cache hit from PrecomputeMultiplexed
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ser.comparison(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mc.FLT.Reports {
			mc.FLT.Reports[i].Elapsed = 0
			sc.FLT.Reports[i].Elapsed = 0
		}
		for i := range mc.ActiveDR.Reports {
			mc.ActiveDR.Reports[i].Elapsed = 0
			sc.ActiveDR.Reports[i].Elapsed = 0
		}
		sameResult(t, fmt.Sprintf("lifetime %v flt", d), sc.FLT, mc.FLT)
		sameResult(t, fmt.Sprintf("lifetime %v activedr", d), sc.ActiveDR, mc.ActiveDR)
	}
}
