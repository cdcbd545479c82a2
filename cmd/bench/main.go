// Command bench runs the repository's benchmark suite and records the
// parsed results in a BENCH_<date>.json trajectory file, so perf
// changes across commits leave a machine-readable trail instead of
// numbers pasted into commit messages.
//
// Each invocation appends one run (timestamp, toolchain, the go test
// arguments, and every parsed benchmark with its metrics) to the
// day's file, creating it when absent. See README.md ("Benchmark
// trajectories") for the format.
//
// Usage:
//
//	bench                                   # full suite, default time
//	bench -bench 'Replay' -count 3          # replay benches only
//	bench -benchtime 1x -label smoke        # CI smoke run
//	bench -o BENCH_baseline.json            # explicit output file
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"activedr/internal/fsx"
)

// Benchmark is one parsed result line: the benchmark's name (with its
// -cpu suffix), the iteration count, and every reported metric keyed
// by unit (ns/op, B/op, allocs/op, plus custom units like misses).
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Run is one bench invocation's worth of results.
type Run struct {
	Timestamp  string      `json:"timestamp"`
	Label      string      `json:"label,omitempty"`
	Go         string      `json:"go"`
	Args       []string    `json:"args"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Trajectory is the top-level BENCH_<date>.json document: every run
// recorded that day, oldest first.
type Trajectory struct {
	Runs []Run `json:"runs"`
}

// options carries every flag; validate fail-fasts before the (long)
// benchmark run starts.
type options struct {
	bench     string
	benchtime string
	count     int
	short     bool
	pkgs      string
	label     string
	out       string
	input     string
	date      string
}

func parseFlags() *options {
	o := &options{}
	flag.StringVar(&o.bench, "bench", ".", "benchmark pattern passed to go test -bench")
	flag.StringVar(&o.benchtime, "benchtime", "", "passed to go test -benchtime (empty = go default)")
	flag.IntVar(&o.count, "count", 1, "passed to go test -count")
	flag.BoolVar(&o.short, "short", false, "pass -short (skips the million-file namespaces)")
	flag.StringVar(&o.pkgs, "pkgs", "./...", "comma-separated package patterns to benchmark")
	flag.StringVar(&o.label, "label", "", "free-form tag recorded with the run (e.g. before, after, smoke)") //lint:allow flagvalidate label is a free-form tag: every string is a valid value, there is nothing to range-check
	flag.StringVar(&o.out, "o", "", "output file (empty = BENCH_<date>.json in the working directory)")
	flag.StringVar(&o.input, "input", "", "record results from an existing go test -bench output file instead of running the suite")
	flag.StringVar(&o.date, "date", "", "run timestamp, RFC3339 or YYYY-MM-DD (default: current time); stamps the record and the default output name")
	flag.Parse()
	return o
}

func (o *options) validate() error {
	if _, err := regexp.Compile(o.bench); err != nil {
		return fmt.Errorf("-bench is not a valid pattern: %v", err)
	}
	if o.benchtime != "" && !benchtimeRe.MatchString(o.benchtime) {
		return fmt.Errorf("-benchtime must be a duration (10s) or an iteration count (100x), got %q", o.benchtime)
	}
	if o.count < 1 {
		return fmt.Errorf("-count must be >= 1, got %d", o.count)
	}
	if strings.TrimSpace(o.pkgs) == "" {
		return fmt.Errorf("-pkgs must name at least one package pattern")
	}
	if o.input != "" {
		if _, err := os.Stat(o.input); err != nil {
			return fmt.Errorf("-input: %w", err)
		}
	}
	if o.out != "" {
		if _, err := os.Stat(filepath.Dir(o.out)); err != nil {
			return fmt.Errorf("-o: parent directory: %w", err)
		}
	}
	if o.date != "" {
		if _, err := resolveDate(o.date); err != nil {
			return err
		}
	}
	return nil
}

// benchtimeRe mirrors go test's accepted -benchtime shapes: a
// Go duration or an explicit iteration count.
var benchtimeRe = regexp.MustCompile(`^([0-9]+(\.[0-9]+)?(ns|us|µs|ms|s|m|h))+$|^[0-9]+x$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	o := parseFlags()
	if err := o.validate(); err != nil {
		log.Fatal(err)
	}

	// The wall clock is read here, at the CLI edge, and only when no
	// -date was given: everything below is a pure function of its
	// inputs, which keeps the tool honest under the nondeterminism
	// lint rule and lets tests pin the trajectory file name.
	now, err := resolveDate(o.date)
	if err != nil {
		log.Fatal(err)
	}

	if o.input != "" {
		f, err := os.Open(o.input)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		benches, err := parseBenchOutput(f)
		if err != nil {
			log.Fatal(err)
		}
		record(o.out, Run{Label: o.label, Go: runtime.Version(),
			Args: []string{"-input", o.input}, Benchmarks: benches}, now)
		return
	}

	args := []string{"test", "-run=^$", "-bench", o.bench, "-benchmem", "-count", strconv.Itoa(o.count)}
	if o.benchtime != "" {
		args = append(args, "-benchtime", o.benchtime)
	}
	if o.short {
		args = append(args, "-short")
	}
	args = append(args, strings.Split(o.pkgs, ",")...)

	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	benches, perr := parseBenchOutput(io.TeeReader(stdout, os.Stdout))
	if err := cmd.Wait(); err != nil {
		log.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	if perr != nil {
		log.Fatal(perr)
	}
	if len(benches) == 0 {
		log.Fatalf("no benchmarks matched %q", o.bench)
	}
	record(o.out, Run{Label: o.label, Go: runtime.Version(), Args: args, Benchmarks: benches}, now)
}

// resolveDate parses the -date flag, defaulting to the current time.
func resolveDate(s string) (time.Time, error) {
	if s == "" {
		return time.Now(), nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return time.Time{}, fmt.Errorf("-date %q: want RFC3339 or YYYY-MM-DD", s)
	}
	return t, nil
}

// benchBase strips the -<digits> GOMAXPROCS suffix go test appends to
// a result name; any other '-' (a sub-benchmark's own name) stays.
func benchBase(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// medianNsOp returns the median ns/op across every repetition of the
// named benchmark (names carry a -cpu suffix; -count adds lines, not
// names), or 0 when the benchmark is absent.
func medianNsOp(benches []Benchmark, name string) float64 {
	var vals []float64
	for _, b := range benches {
		if benchBase(b.Name) != name {
			continue
		}
		if v, ok := b.Metrics["ns/op"]; ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// addDerived appends metrics that only exist as cross-benchmark
// ratios. Currently one: Sweep4Speedup, the 4-policies-per-pass
// speedup of the multiplexed replay over four dedicated ones (median
// sequential ns/op over median multiplexed ns/op), recorded whenever a
// run captures both sweep benchmarks.
func addDerived(benches []Benchmark) []Benchmark {
	seq := medianNsOp(benches, "BenchmarkSweep4Sequential")
	mux := medianNsOp(benches, "BenchmarkSweep4Multiplexed")
	if seq > 0 && mux > 0 {
		benches = append(benches, Benchmark{
			Name:       "Sweep4Speedup",
			Iterations: 1,
			Metrics:    map[string]float64{"x": seq / mux},
		})
	}
	return benches
}

// record appends one run to the trajectory file, stamped with now.
func record(path string, run Run, now time.Time) {
	run.Benchmarks = addDerived(run.Benchmarks)
	if len(run.Benchmarks) == 0 {
		log.Fatal("no benchmark result lines found")
	}
	run.Timestamp = now.Format(time.RFC3339)
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", now.Format("2006-01-02"))
	}
	traj, err := loadTrajectory(path)
	if err != nil {
		log.Fatal(err)
	}
	traj.Runs = append(traj.Runs, run)
	if err := writeTrajectory(path, traj); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d benchmarks to %s (%d runs)\n", len(run.Benchmarks), path, len(traj.Runs))
}

// parseBenchOutput extracts result lines of the form
//
//	BenchmarkName-8  3  130101576 ns/op  6999 misses  14241594 B/op  77327 allocs/op
//
// into Benchmark values. Non-benchmark lines (headers, PASS/ok) are
// skipped.
func parseBenchOutput(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[f[i+1]] = v
		}
		if ok {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// loadTrajectory reads an existing trajectory file, or returns an
// empty one when the file does not exist yet.
func loadTrajectory(path string) (*Trajectory, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Trajectory{}, nil
	}
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(blob, &t); err != nil {
		return nil, fmt.Errorf("%s: %w (move it aside to start a fresh trajectory)", path, err)
	}
	return &t, nil
}

// writeTrajectory replaces the trajectory file atomically, so a run
// killed mid-write leaves the previous file intact, never a torn one.
func writeTrajectory(path string, t *Trajectory) error {
	blob, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, append(blob, '\n'), 0o644)
}
