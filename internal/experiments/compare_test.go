package experiments

import (
	"fmt"
	"reflect"
	"testing"

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

// matchesRunComparison runs cfgs together through Suite.compare on the
// 300-user synthetic suites of seeds 7 and 11 and checks each lane's
// full Result — captured and final file systems included — against the
// one sim.New(ds, cfg).RunComparison gives.
func matchesRunComparison(t *testing.T, names []string, cfgs []sim.Config) {
	t.Helper()
	for _, seed := range []uint64{7, 11} {
		s, err := NewSyntheticSuite(300, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.compare(cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			em, err := sim.New(s.Dataset(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := em.RunComparison()
			if err != nil {
				t.Fatal(err)
			}
			normalizeComparison(want)
			normalizeComparison(got[i])
			label := fmt.Sprintf("seed %d %s", seed, names[i])
			sameResult(t, label+" flt", want.FLT, got[i].FLT)
			sameResult(t, label+" activedr", want.ActiveDR, got[i].ActiveDR)
		}
	}
}

// TestCompareMatchesRunComparison pins every ablation variant, run
// together through Suite.compare, against dedicated replays. The
// variants cover StrictEq7, the merged scan order, a zero target, one
// retrospective pass, a 30-day period under a 90-day lifetime and the
// login/transfer evaluator.
func TestCompareMatchesRunComparison(t *testing.T) {
	var names []string
	var cfgs []sim.Config
	for _, v := range ablationVariants() {
		names = append(names, v.name)
		cfgs = append(cfgs, v.cfg)
	}
	matchesRunComparison(t, names, cfgs)
}

// TestPrecomputeMultiplexedMatchesSerial pins the figures' period
// sweep: one multiplexed pass over every period length, the 90-day
// config asked for twice, must give each lane the Result a dedicated
// sequential replay gives.
func TestPrecomputeMultiplexedMatchesSerial(t *testing.T) {
	cfgs := append(periodConfigs(), figureConfig(timeutil.Days(90)))
	names := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		names[i] = "lifetime " + cfg.Lifetime.String()
	}
	matchesRunComparison(t, names, cfgs)
}

// TestPrecomputeMatchesSerial is the batching contract: a sweep
// precomputed in one compare call, as lanes of one multiplexed pass,
// must read the same as the same configs computed one call (and so one
// pass) at a time, since lanes never see each other's state.
func TestPrecomputeMatchesSerial(t *testing.T) {
	cfgs := append(periodConfigs(), ablationVariants()[0].cfg)

	batch, err := NewSyntheticSuite(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	all, err := batch.compare(cfgs...)
	if err != nil {
		t.Fatal(err)
	}

	ser := NewSuite(batch.Dataset())
	for i, cfg := range cfgs {
		one, err := ser.compare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		normalizeComparison(all[i])
		normalizeComparison(one[0])
		label := fmt.Sprintf("config %d (lifetime %v)", i, cfg.Lifetime)
		sameResult(t, label+" flt", one[0].FLT, all[i].FLT)
		sameResult(t, label+" activedr", one[0].ActiveDR, all[i].ActiveDR)
	}
}
