package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary:
// runWorkload re-executes os.Executable() as "child ..." for every
// sample.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeUsers is the population of the smoke runs: small enough that
// all three journeys take a few seconds, and at minUsers.
const smokeUsers = minUsers

var update = flag.Bool("update", false, "recompute golden.json's pinned fingerprints (full scale takes about a minute)")

// benchmarkFile is the repository's benchmark declaration.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesMetrics holds BENCHMARK.json and the metric
// tables the runs report from in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the tables %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	dir := func(lower bool) string {
		if lower {
			return "lower"
		}
		return "higher"
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != dir(d.lower) || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != dir(d.lower) {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at smokeUsers with one sample of each dataset, traced,
// and checks the result line names every metric with its unit, the
// outputs checked out, and the spans nest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every journey")
	}
	b := readBenchmarkFile(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	for _, w := range workloadNames {
		o := &options{workload: w, seed: 9, seconds: 1, trace: true, users: smokeUsers, samples: 1,
			out: filepath.Join(work, w+".json"), work: work}
		r, err := runWorkload(o, g, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d/%d: %v", w, r.Correct, r.Failed, r.Attempted, r.Errors)
		}
		if r.Expected != "golden" {
			t.Errorf("%s: outputs checked against %s, want the golden pins for seed 9", w, r.Expected)
		}
		for _, traced := range []bool{false, true} {
			line, err := json.Marshal(r.contractLine(traced))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				if mv, ok := got.Metrics[name]; !ok || mv.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, name, mv, unit)
				}
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(got.Metrics), len(want))
			}
		}
		for _, m := range endToEnd {
			if r.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.name, r.Metrics[m.name].Value)
			}
		}
		// A printed timing must be measured on every workload: a constant
		// 0 would read the same on every run.
		for _, m := range perLayer {
			if (m.unit == "s" || m.unit == "ms") && r.PerLayer[m.name].Value <= 0 {
				t.Errorf("%s: per-layer %s = %v, want a measured time", w, m.name, r.PerLayer[m.name].Value)
			}
		}
		own := map[string][]string{
			wlSweep4:  {"sim.mux_run_s", "bench.trace_overhead_pct", "bench.unattributed_pct"},
			wlCompare: {"vfs.snap_open_s", "vfs.snap_load_s", "sim.stream_apply_s", "sim.trigger_s", "bench.unattributed_pct"},
			wlDaemon:  {"daemon.new_s", "daemon.ingest_rtt_p50_ms", "loadgen.lag_p90_ms"},
		}
		for _, name := range own[w] {
			if _, ok := r.PerLayer[name]; !ok {
				t.Errorf("%s: result lacks its journey timing %s", w, name)
			}
		}
		if w != wlDaemon {
			checkSpans(t, w, filepath.Join(work, w+".json.trace.json"))
		}
	}
}

func checkSpans(t *testing.T, w, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []Span
	if err := json.Unmarshal(blob, &spans); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for i, s := range spans {
		layers[s.Name] = true
		if s.End < s.Start {
			t.Errorf("%s: span %d %s ends before it starts", w, i, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Parent >= i || s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d %s [%d,%d] not inside parent %s [%d,%d]",
					w, i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			t.Errorf("%s: span %d %s has self time %v", w, i, spans[i].Name, d)
		}
	}
	want := []string{"sample", "trace.load", "sim.new", "retention.purge"}
	if w == wlCompare {
		want = append(want, "vfs.snap_open", "vfs.snap_load", "sim.apply", "sim.trigger")
	} else {
		want = append(want, "vfs.build", "sim.mux_run")
	}
	for _, n := range want {
		if !layers[n] {
			t.Errorf("%s: no %s span", w, n)
		}
	}
}

// TestTamperedGoldenFails checks that a run whose outputs disagree with
// the pinned fingerprints reports itself incorrect.
func TestTamperedGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a journey")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	key := datasetKey(smokeUsers, 9, 1)
	fp := g[key]["activedr-90d"]
	fp.Misses++
	g[key]["activedr-90d"] = fp
	o := &options{workload: wlCompare, seed: 9, seconds: 1, users: smokeUsers, samples: 1, work: t.TempDir()}
	r, err := runWorkload(o, g, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 {
		t.Fatalf("tampered golden: correct=%v failed=%d, want a failed run", r.Correct, r.Failed)
	}
}

// TestPeakRSSIsTheChilds checks that a sample's peak RSS is the child
// process's own, not the parent's resident set at the fork: the parent
// here holds a 256 MiB ballast, far above a smoke-scale child's peak.
func TestPeakRSSIsTheChilds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a journey")
	}
	const ballastMB = 256 << 20 / 1e6
	ballast := make([]byte, 256<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	if parent := peakRSSMB(); parent < ballastMB {
		t.Skipf("peak RSS unavailable here (%v MB)", parent)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	o := &options{workload: wlSweep4, seed: 9, seconds: 1, users: smokeUsers, samples: 1, work: t.TempDir()}
	r, err := runWorkload(o, g, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(ballast)
	if rss := r.Metrics["peak_rss_mb"]; rss.Value <= 0 || slices.Max(rss.Samples) >= ballastMB/2 {
		t.Errorf("peak_rss_mb = %v (samples %v), want each a smoke-scale child's own peak, well under the parent's %v MB",
			rss.Value, rss.Samples, ballastMB)
	}
}

// TestGolden checks golden.json's smoke-scale pins against fresh
// reference replays; with -update it recomputes every pin.
func TestGolden(t *testing.T) {
	type pin struct {
		users int
		seed  uint64
	}
	runs := []pin{{smokeUsers, 9}}
	if *update {
		runs = append(runs, pin{2000, 9}, pin{2000, 1}, pin{2000, 2})
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	fresh := golden{}
	for _, k := range runs {
		sets, _, err := prepareRun(t.TempDir(), k.users, k.seed, golden{})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range sets {
			fresh[in.Key] = in.Reference
		}
	}
	if *update {
		blob, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for k, want := range fresh {
		if !reflect.DeepEqual(g[k], want) {
			t.Errorf("golden.json %s = %+v, fresh reference %+v", k, g[k], want)
		}
	}
}
