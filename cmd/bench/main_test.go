package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestAddDerivedSpeedup pins the derived sweep metric: medians across
// -count repetitions, ratio sequential/multiplexed, and no phantom
// entry when either side is missing.
func TestAddDerivedSpeedup(t *testing.T) {
	mk := func(name string, ns float64) Benchmark {
		return Benchmark{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns}}
	}
	in := []Benchmark{
		mk("BenchmarkSweep4Sequential-1", 350e6),
		mk("BenchmarkSweep4Sequential-1", 300e6),
		mk("BenchmarkSweep4Sequential-1", 330e6),
		mk("BenchmarkSweep4Multiplexed-1", 100e6),
		mk("BenchmarkSweep4Multiplexed-1", 130e6),
		mk("BenchmarkSweep4Multiplexed-1", 110e6),
		mk("BenchmarkReplayBare-1", 80e6), // unrelated, ignored
	}
	out := addDerived(in)
	if len(out) != len(in)+1 {
		t.Fatalf("addDerived appended %d entries, want 1", len(out)-len(in))
	}
	d := out[len(out)-1]
	if d.Name != "Sweep4Speedup" {
		t.Fatalf("derived name = %q", d.Name)
	}
	want := 330e6 / 110e6 // ratio of medians
	if got := d.Metrics["x"]; math.Abs(got-want) > 1e-9 {
		t.Fatalf("speedup = %v, want %v", got, want)
	}

	for _, partial := range [][]Benchmark{
		{mk("BenchmarkSweep4Sequential-1", 350e6)},
		{mk("BenchmarkSweep4Multiplexed-1", 100e6)},
		nil,
	} {
		if out := addDerived(partial); len(out) != len(partial) {
			t.Fatalf("addDerived(%v) fabricated a speedup without both sides", partial)
		}
	}
}

// TestParseBenchOutputSweepLines makes sure the parser keeps custom
// units (misses, policies/pass) the sweep benchmarks report, so the
// derived metric sees its inputs.
func TestParseBenchOutputSweepLines(t *testing.T) {
	out := `goos: linux
BenchmarkSweep4Sequential-1    6   340123456 ns/op   48842 misses   24e6 B/op   100000 allocs/op
BenchmarkSweep4Multiplexed-1   6   110123456 ns/op   48842 misses   4 policies/pass
PASS
`
	benches, err := parseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(benches))
	}
	if benches[0].Metrics["misses"] != 48842 {
		t.Fatalf("misses metric lost: %v", benches[0].Metrics)
	}
	if benches[1].Metrics["policies/pass"] != 4 {
		t.Fatalf("policies/pass metric lost: %v", benches[1].Metrics)
	}
	derived := addDerived(benches)
	if derived[len(derived)-1].Name != "Sweep4Speedup" {
		t.Fatal("no Sweep4Speedup derived from parsed pair")
	}
}

// TestMedianNsOpSuffix pins the name matching behind medianNsOp: only
// a trailing -<digits> GOMAXPROCS suffix is stripped, so sub-benchmark
// names that contain '-' neither collapse into their parent nor lose
// their own repetitions.
func TestMedianNsOpSuffix(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"BenchmarkReplayFLT-2", "BenchmarkReplayFLT"},
		{"BenchmarkReplayFLT", "BenchmarkReplayFLT"},
		{"BenchmarkPurgeTrigger/files=10000-16", "BenchmarkPurgeTrigger/files=10000"},
		{"BenchmarkSweep/mode=multi-lane-4", "BenchmarkSweep/mode=multi-lane"},
		{"BenchmarkSweep/mode=multi-lane", "BenchmarkSweep/mode=multi-lane"},
		{"BenchmarkSweep/mode=x-2b", "BenchmarkSweep/mode=x-2b"},
		{"BenchmarkOdd-", "BenchmarkOdd-"},
	} {
		if got := benchBase(tc.in); got != tc.want {
			t.Errorf("benchBase(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}

	mk := func(name string, ns float64) Benchmark {
		return Benchmark{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns}}
	}
	benches := []Benchmark{
		mk("BenchmarkSweep4Sequential-2", 300),
		mk("BenchmarkSweep4Sequential-2", 320),
		mk("BenchmarkSweep4Sequential-2", 310),
		mk("BenchmarkSweep4Sequential-cold-2", 900),
		mk("BenchmarkSweep4Sequential-cold-2", 950),
		mk("BenchmarkSweep4Sequential-cold-2", 920),
	}
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"BenchmarkSweep4Sequential", 310},
		{"BenchmarkSweep4Sequential-cold", 920},
		{"BenchmarkSweep4Multiplexed", 0},
	} {
		if got := medianNsOp(benches, tc.name); got != tc.want {
			t.Errorf("medianNsOp(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestWriteTrajectory round-trips trajectories through the atomic
// writer: a fresh file, then a shorter replacement that must not keep
// any tail of the longer file it overwrote, with no temp file left
// behind.
func TestWriteTrajectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_2026-01-02.json")
	run := func(label string, n int) Run {
		r := Run{Label: label}
		for i := 0; i < n; i++ {
			r.Benchmarks = append(r.Benchmarks, Benchmark{Name: "BenchmarkX-2", Iterations: 1, Metrics: map[string]float64{"ns/op": float64(i)}})
		}
		return r
	}
	for _, tc := range []struct {
		name string
		traj *Trajectory
	}{
		{"fresh", &Trajectory{Runs: []Run{run("a", 3), run("b", 3)}}},
		{"shorter replacement", &Trajectory{Runs: []Run{run("c", 1)}}},
	} {
		if err := writeTrajectory(path, tc.traj); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := loadTrajectory(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.traj) {
			t.Fatalf("%s: read back %+v, want %+v", tc.name, got, tc.traj)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(blob) {
			t.Fatalf("%s: file is not one JSON document", tc.name)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("%s: %d files in the directory, want only the trajectory", tc.name, len(entries))
		}
	}
}
