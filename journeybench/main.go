// Command journeybench is the repository's end-to-end benchmark. It
// runs the three journeys users take through ActiveDR, each as a
// workload:
//
//	sweep4-tsv    a 4-policy sweep started cold from the gzip-TSV dataset
//	compare-snap  FLT vs ActiveDR started from the binary snapfile
//	daemon-feed   activedrd ingesting the access log while serving reads
//
// The inputs, four datasets of 2000 users, are synthesised from -seed
// (internal/synth) once, untimed. Every sample then runs in a fresh
// child process on one of them, round robin, and times only calls into
// the layers' public entry points. The last line of standard output is
// one JSON object with the run's correctness, operation counts and
// metrics; -o also writes the full result (values, quartiles, samples,
// input digest, environment).
//
// Usage:
//
//	journeybench --workload sweep4-tsv --seed 9 --seconds 20 --trace 0
//	journeybench --workload compare-snap --trace 1 -o run.json   # + per-layer split, run.json.trace.json
//	journeybench compare old.json new.json                       # files or directories of results
//
// run.sh next to this file builds the binary and runs it from the
// checkout root.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"activedr/internal/fsx"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("journeybench: ")
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
		case "child":
			if err := childMain(args[1:]); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	os.Exit(runMain(args, os.Stdout, os.Stderr))
}

// options are the flags of a benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	users    int
	samples  int
	out      string
	work     string // generated inputs and daemon state
}

// minUsers is the smallest population the benchmark synthesises. A
// much smaller one may hold fewer than three academics (power users and
// scholars), and synth.Generate then never returns: its publication
// generator keeps drawing for a third distinct co-author.
const minUsers = 200

func parseOptions(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("journeybench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := &options{}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: sweep4-tsv, compare-snap or daemon-feed")
	fs.Uint64Var(&o.seed, "seed", 9, "seed the inputs and the query mix are drawn from")
	fs.IntVar(&o.seconds, "seconds", 20, "keep taking samples until this many seconds have passed")
	fs.IntVar(&traceFlag, "trace", 0, "1 = also run traced samples and the layer floors, and report the per-layer metrics instead of the end-to-end ones")
	fs.IntVar(&o.users, "users", 2000, "synthesised user count per dataset")
	fs.IntVar(&o.samples, "samples", 0, "take exactly this many samples of each dataset (0 = as many as -seconds allows, at least one each)")
	fs.StringVar(&o.out, "o", "", "also write the full result JSON here (and the traced spans to <o>.trace.json)")
	o.work = filepath.Join(".bench_build", "journeybench")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := journeys[o.workload]; !ok {
		return nil, fmt.Errorf("-workload must be one of %v, got %q", workloadNames, o.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be >= 1, got %d", o.seconds)
	}
	if o.users < minUsers {
		return nil, fmt.Errorf("-users must be >= %d, got %d", minUsers, o.users)
	}
	if o.samples < 0 {
		return nil, fmt.Errorf("-samples must be >= 0, got %d", o.samples)
	}
	return o, nil
}

func runMain(args []string, out, errOut io.Writer) int {
	o, err := parseOptions(args, errOut)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(errOut, "journeybench:", err)
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(errOut, "journeybench:", err)
		return 1
	}
	res, err := runWorkload(o, g, errOut)
	if err != nil {
		fmt.Fprintln(errOut, "journeybench:", err)
		return 1
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			fmt.Fprintln(errOut, "journeybench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.contractLine(o.trace))
	if err != nil {
		fmt.Fprintln(errOut, "journeybench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// summary is one metric over a run: the reported value, and the
// median, quartiles, count and values of the samples it came from. The
// value is the samples' median unless acrossDatasets or
// pooledPercentile says otherwise.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	q1, q3 := quartiles(xs)
	m := median(xs)
	return summary{Unit: unit, Value: m, Median: m, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// acrossDatasets summarises f over samples taken on several datasets:
// the value is the mean over datasets of each dataset's median, so each
// dataset weighs the same however many samples it got (0 for no
// samples).
func acrossDatasets(unit string, samples []*sample, f func(*sample) float64) summary {
	xs := perSample(samples, f)
	by := map[int][]float64{}
	for i, s := range samples {
		by[s.Dataset] = append(by[s.Dataset], xs[i])
	}
	var sum float64
	for _, ys := range by {
		sum += median(ys)
	}
	out := summarize(unit, xs)
	if len(by) > 0 {
		out.Value = sum / float64(len(by))
	}
	return out
}

// env records what the numbers were measured on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	WorkFS     string `json:"work_fs"`
}

// result is one run of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Users    int    `json:"users"`
	// Digest is a SHA-256 over the digests of every dataset in Inputs.
	Digest    string    `json:"input_digest"`
	Inputs    []*inputs `json:"inputs"`
	Expected  string    `json:"expected_from"`
	Env       env       `json:"env"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	// SampleDatasets is the dataset index of each untraced sample, in
	// the order of every metric's samples.
	SampleDatasets []int              `json:"sample_datasets"`
	Metrics        map[string]summary `json:"metrics"`
	// HostRef is hostSpeed's time around the samples, kept with every
	// run so two runs can be compared for host drift.
	HostRef  summary            `json:"host_ref_ms"`
	PerLayer map[string]summary `json:"per_layer,omitempty"`
}

// metricValue is one metric in the contract line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output: end-to-end metrics,
// or with trace the per-layer ones.
func (r *result) contractLine(traced bool) any {
	defs, src := endToEnd, r.Metrics
	if traced {
		defs, src = perLayer, r.PerLayer
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Value: src[d.name].Value, Unit: d.unit}
	}
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m}
}

// failf counts one failed operation and notes why.
func (r *result) failf(format string, args ...any) {
	r.Failed++
	r.note(format, args...)
}

func (r *result) note(format string, args ...any) {
	if len(r.Errors) < 50 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// runWorkload generates (or reuses) the inputs, takes the samples, and
// checks and summarises them.
func runWorkload(o *options, g golden, logw io.Writer) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	t := time.Now()
	sets, digest, err := prepareRun(o.work, o.users, o.seed, g)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	wants := make([]map[string]Fingerprint, len(sets))
	var froms []string
	for i, in := range sets {
		var from string
		if wants[i], from, err = expected(in, g); err != nil {
			return nil, fmt.Errorf("%s: %w", in.Key, err)
		}
		if !slices.Contains(froms, from) {
			froms = append(froms, from)
		}
	}
	r := &result{Workload: o.workload, Seed: o.seed, Users: o.users, Digest: digest,
		Inputs: sets, Expected: strings.Join(froms, "+"),
		Env: env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), WorkFS: fsType(o.work)}}
	fmt.Fprintf(logw, "inputs u%d-s%d: %d datasets, digest %.12s, ready in %.1fs; outputs checked against %s\n",
		o.users, o.seed, len(sets), digest, time.Since(t).Seconds(), r.Expected)
	state := filepath.Join(o.work, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	take := func(id, dataset int, flags ...string) *sample {
		s, err := runChild(o, sets[dataset], state, id, flags...)
		r.Attempted++
		if err != nil {
			r.failf("sample %d: %v", id, err)
			return nil
		}
		s.Dataset = dataset
		s.Events = sets[dataset].Accesses
		r.Attempted += s.Attempted
		r.Failed += s.Failed
		for _, e := range s.Errors {
			r.note("sample %d: %s", id, e)
		}
		if !slices.Contains(flags, "-floors") {
			checkLanes(r, id, s, wants[dataset])
		}
		return s
	}

	// The floors child doubles as the untimed warm-up: it reads a whole
	// dataset and keeps the CPU busy for about a second, so the first
	// sample does not start on an idle host.
	floors := take(-1, 0, "-floors")
	var samples []*sample
	start := time.Now()
	before := hostSpeed()
	for i := 0; ; i++ {
		if o.samples > 0 && i >= o.samples*len(sets) {
			break
		}
		if o.samples == 0 && i >= len(sets) && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
		s := take(i, i%len(sets))
		after := hostSpeed()
		if s != nil {
			s.Layer["host.ref_ms"] = math.Sqrt(before * after)
			samples = append(samples, s)
			fmt.Fprintf(logw, "sample %d (dataset %d): setup %.3fs, replay %.3fs, rss %.0f MB, host %.0f ms\n",
				i, s.Dataset, s.SetupS, s.ReplayS, s.RSSMB, s.Layer["host.ref_ms"])
		}
		before = after
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("every sample failed: %v", r.Errors)
	}
	r.Metrics = endToEndSummaries(samples)
	r.SampleDatasets = make([]int, len(samples))
	for i, s := range samples {
		r.SampleDatasets[i] = s.Dataset
	}
	r.HostRef = summarize("ms", perSample(samples, func(s *sample) float64 { return s.Layer["host.ref_ms"] }))
	if o.trace {
		var traced []*sample
		if o.workload != wlDaemon {
			for i := 0; i < tracedSamples; i++ {
				if s := take(len(samples)+i, 0, "-traced"); s != nil {
					traced = append(traced, s)
				}
			}
		}
		r.PerLayer = perLayerSummaries(o.workload, samples, traced, floors)
		if len(traced) > 0 {
			spans := joinSpans(traced)
			printSelfSummary(logw, spans)
			if o.out != "" {
				if err := writeJSON(o.out+".trace.json", spans); err != nil {
					return nil, err
				}
			}
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// runChild runs one sample in a fresh process of this binary and
// returns what it reported.
func runChild(o *options, in *inputs, state string, id int, flags ...string) (*sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"child", "-workload", o.workload, "-dir", in.Dir, "-state", state,
		"-seed", strconv.FormatUint(o.seed, 10), "-sample", strconv.Itoa(id)}, flags...)
	// A sample takes seconds (a daemon pass about 6 s on 2 vCPUs); a
	// child still running after a minute is stuck, and counts as failed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	var s sample
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &s, nil
}

// checkLanes compares every lane fingerprint a sample reported with the
// expected one. Each workload must report its own lanes: the 90 d
// lanes of sweep4-tsv and compare-snap, and the daemon's final state,
// are all held to the same expected ActiveDR-90d fingerprint, which is
// what makes the three journeys cross-checks of one another.
func checkLanes(r *result, id int, s *sample, want map[string]Fingerprint) {
	var names []string
	switch r.Workload {
	case wlSweep4:
		for _, l := range sweepLanes {
			names = append(names, l.name)
		}
	case wlCompare:
		for _, l := range compareLanes {
			names = append(names, l.name)
		}
	case wlDaemon:
		names = []string{"activedr-90d"}
	}
	for _, n := range names {
		got, ok := s.Lanes[n]
		switch {
		case !ok:
			r.failf("sample %d: lane %s reported no result", id, n)
		case got != want[n]:
			r.failf("sample %d: lane %s = %+v, want %+v", id, n, got, want[n])
		}
	}
}

// perSample collects f over samples.
func perSample(samples []*sample, f func(*sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

// queryMs returns the latencies of one sample's queries of the given
// kind ("" for all kinds).
func queryMs(s *sample, kind string) []float64 {
	var xs []float64
	for _, q := range s.Queries {
		if kind == "" || q.Kind == kind {
			xs = append(xs, q.Ms)
		}
	}
	return xs
}

// endToEndSummaries summarises the untraced samples. The timings are
// reported at the reference host's speed: each sample's wall time is
// scaled by hostRefMs over the host.ref_ms timed around it. The shared
// host runs the same instructions up to half again as slow from one
// minute to the next, and the journeys slow down with the kernel. The
// replay is reported as a rate, access-log events per second, because
// the datasets' logs differ in length by several percent. The wall
// times as measured are kept as setup_wall_s and replay_wall_s.
func endToEndSummaries(samples []*sample) map[string]summary {
	atRef := func(s *sample) float64 { return hostRefMs / s.Layer["host.ref_ms"] }
	return map[string]summary{
		"setup_s":       acrossDatasets("s", samples, func(s *sample) float64 { return s.SetupS * atRef(s) }),
		"replay_eps":    acrossDatasets("ev/s", samples, func(s *sample) float64 { return float64(s.Events) / (s.ReplayS * atRef(s)) }),
		"peak_rss_mb":   acrossDatasets("MB", samples, func(s *sample) float64 { return s.RSSMB }),
		"setup_wall_s":  acrossDatasets("s", samples, func(s *sample) float64 { return s.SetupS }),
		"replay_wall_s": acrossDatasets("s", samples, func(s *sample) float64 { return s.ReplayS }),
	}
}

// pooledPercentile summarises a read latency percentile: the reported
// value is the percentile over every read of the samples, so that p90
// rests on enough reads beyond it; the per-sample percentiles give the
// spread.
func pooledPercentile(samples []*sample, kind string, p float64) summary {
	var all []float64
	for _, s := range samples {
		all = append(all, queryMs(s, kind)...)
	}
	sum := acrossDatasets("ms", samples, func(s *sample) float64 { return percentile(queryMs(s, kind), p) })
	sum.Value = percentile(all, p)
	return sum
}

// tracedSamples is how many traced samples a --trace 1 run of a batch
// workload takes, all on dataset 0. One sample's wall time strays by up
// to a fifth from its dataset's median, far more than tracing costs;
// the median of three strays less.
const tracedSamples = 3

// perLayerSummaries assembles the per-layer metrics. Each comes from
// the first source that measured it: the untraced samples (as
// acrossDatasets summarises them), then the traced samples (span times,
// obs counts), then the floors child (standalone calls). A printed
// metric no source measured is a count of work the workload does not
// do, and reads 0; an unmeasured journey-specific timing is left out.
func perLayerSummaries(workload string, samples, traced []*sample, floors *sample) map[string]summary {
	out := make(map[string]summary, len(perLayer)+len(journeyLayers))
	pick := func(d metricDef) bool {
		for _, src := range [][]*sample{samples, traced, {floors}} {
			if len(src) == 0 {
				continue
			}
			if _, ok := src[0].layer(d.name); ok {
				out[d.name] = acrossDatasets(d.unit, src, func(s *sample) float64 { return s.Layer[d.name] })
				return true
			}
		}
		return false
	}
	for _, d := range perLayer {
		if !pick(d) {
			out[d.name] = summarize(d.unit, []float64{0})
		}
	}
	for _, d := range journeyLayers {
		pick(d)
	}
	// daemon-feed's reads contend with its ingest; the batch workloads
	// report those the floors child sent an idle daemon.
	reads := samples
	if workload != wlDaemon {
		reads = nil
		if floors != nil {
			reads = []*sample{floors}
		}
	}
	out["daemon.query_p50_ms"] = pooledPercentile(reads, "", 50)
	out["daemon.query_p90_ms"] = pooledPercentile(reads, "", 90)
	for _, kind := range queryKinds {
		out["daemon."+kind+"_p50_ms"] = pooledPercentile(reads, kind, 50)
	}
	out["loadgen.lag_p90_ms"] = summarize("ms", perSample(reads, func(s *sample) float64 {
		lags := make([]float64, len(s.Queries))
		for i, q := range s.Queries {
			lags[i] = q.LagMs
		}
		return percentile(lags, 90)
	}))
	if len(traced) > 0 {
		var walls []float64
		for _, s := range samples {
			if s.Dataset == traced[0].Dataset {
				walls = append(walls, s.WallS)
			}
		}
		// With no untraced sample of the traced dataset there is nothing
		// to measure the overhead against.
		if base := median(walls); base > 0 {
			tw := median(perSample(traced, func(s *sample) float64 { return s.WallS }))
			out["bench.trace_overhead_pct"] = summarize("%", []float64{100 * (tw - base) / base})
		}
		// Layer spans are named layer.call; the undotted ones (sample,
		// setup, replay, queries) only group them, so their self time is
		// the part of the sample no layer accounts for.
		var wall, glue time.Duration
		spans := joinSpans(traced)
		self := selfTimes(spans)
		for i, sp := range spans {
			if sp.Parent < 0 && sp.Name == "sample" {
				wall += sp.Dur()
			}
			if !strings.Contains(sp.Name, ".") {
				glue += self[i]
			}
		}
		if wall > 0 {
			out["bench.unattributed_pct"] = summarize("%", []float64{100 * float64(glue) / float64(wall)})
		}
	}
	return out
}

// layer returns a per-layer value the sample reported, if it did.
func (s *sample) layer(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	v, ok := s.Layer[name]
	return v, ok
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, append(blob, '\n'), 0o644)
}
