package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// Verdicts of a comparison of one metric on one workload.
const (
	better     = "better"
	worse      = "worse"
	within     = "within"
	unresolved = "unresolved"
)

// judge compares side b against side a for one metric. It is
// unresolved when either side's quartile spread, as a share of its
// median, is wider than the bound, unless every value of one side beats
// every value of the other; otherwise the change of the values decides
// against the bound.
func judge(a, b summary, lower bool, bound float64) string {
	ma, mb := a.Value, b.Value
	if ma == 0 || mb == 0 {
		if ma == mb {
			return within
		}
		return unresolved
	}
	if spread(a.Samples) > bound || spread(b.Samples) > bound {
		if !separated(a.Samples, b.Samples) && !separated(b.Samples, a.Samples) {
			return unresolved
		}
	}
	change := (mb - ma) / ma // > 0: b reads higher
	if lower {
		change = -change
	}
	switch {
	case change > bound:
		return better
	case change < -bound:
		return worse
	}
	return within
}

// spread is the quartile distance as a share of the median; infinite
// for fewer than two values, whose spread is unknown.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// separated reports whether every value of lo is below every value of
// hi, with at least two values on each side.
func separated(lo, hi []float64) bool {
	return len(lo) > 1 && len(hi) > 1 && sorted(lo)[len(lo)-1] < sorted(hi)[0]
}

// loadResults reads a result file, or every result file in a
// directory, grouped by workload. A directory may hold several runs of
// one workload, for example one per seed.
func loadResults(path string) (map[string][]*result, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string][]*result)
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a journeybench result", f)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// compareMain prints, for every workload both sides ran and every
// end-to-end metric, the two values and quartiles, the change, the
// bound and the verdict. It exits 1 when a metric got worse or the
// failure ratio rose, and 2 when the results cannot be compared.
func compareMain(args []string, out, errOut io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(errOut, "usage: journeybench compare <a.json|dir> <b.json|dir>")
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil {
		var b map[string][]*result
		if b, err = loadResults(args[1]); err == nil {
			var regressed bool
			if regressed, err = compare(out, a, b); err == nil {
				if regressed {
					return 1
				}
				return 0
			}
		}
	}
	fmt.Fprintln(errOut, "journeybench compare:", err)
	return 2
}

// digests lists the runs' input digests in order.
func digests(runs []*result) []string {
	ds := make([]string, len(runs))
	for i, r := range runs {
		ds[i] = r.Digest
	}
	slices.Sort(ds)
	return ds
}

// sideSummary is one side's distribution of a metric. With several
// runs it is the runs' reported values, so the spread is run to run.
// A single run stands in with its sample-to-sample noise around its
// value (see sampleNoise).
func sideSummary(runs []*result, name string) summary {
	if len(runs) == 1 {
		r := runs[0]
		m := r.Metrics[name]
		s := summarize(m.Unit, sampleNoise(m, r.SampleDatasets))
		s.Value = m.Value
		return s
	}
	s := summarize("", perRun(runs, func(r *result) float64 { return r.Metrics[name].Value }))
	s.Unit = runs[0].Metrics[name].Unit
	return s
}

// sampleNoise returns a run's samples of one metric with the
// differences between datasets taken out: each sample scaled by the
// ratio of the run's value to its dataset's median. A dataset sampled
// once says nothing about noise and is left out.
func sampleNoise(m summary, datasets []int) []float64 {
	if len(datasets) != len(m.Samples) {
		return nil
	}
	by := map[int][]float64{}
	for i, d := range datasets {
		by[d] = append(by[d], m.Samples[i])
	}
	var out []float64
	for i, d := range datasets {
		if med := median(by[d]); len(by[d]) > 1 && med != 0 {
			out = append(out, m.Samples[i]*m.Value/med)
		}
	}
	return out
}

func perRun(runs []*result, f func(*result) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return xs
}

// compare writes the comparison table and reports whether b regressed.
func compare(w io.Writer, a, b map[string][]*result) (bool, error) {
	var names []string
	for _, n := range workloadNames {
		if a[n] != nil && b[n] != nil {
			if da, db := digests(a[n]), digests(b[n]); !slices.Equal(da, db) {
				return false, fmt.Errorf("%s: input digests differ (%.12s vs %.12s): the runs measured different inputs",
					n, strings.Join(da, ","), strings.Join(db, ","))
			}
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("no workload appears on both sides")
	}
	regressed := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA value [q1, q3]\tB value [q1, q3]\tdelta\tbound\tverdict\tp")
	for _, n := range names {
		for _, m := range endToEnd {
			sa, sb := sideSummary(a[n], m.name), sideSummary(b[n], m.name)
			v := judge(sa, sb, m.lower, m.bound)
			if v == worse {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\t%.3f\n", n, m.name,
				fmtSummary(sa), fmtSummary(sb), 100*(sb.Value-sa.Value)/sa.Value,
				100*m.bound, v, rankSumP(sa.Samples, sb.Samples))
		}
	}
	tw.Flush()
	for _, n := range names {
		ca := median(perRun(a[n], func(r *result) float64 { return r.HostRef.Value }))
		cb := median(perRun(b[n], func(r *result) float64 { return r.HostRef.Value }))
		fa, ta := failures(a[n])
		fb, tb := failures(b[n])
		if fb*ta > fa*tb { // fb/tb > fa/ta
			regressed = true
		}
		fmt.Fprintf(w, "%s: %d vs %d runs; host.ref_ms %.1f -> %.1f (%+.1f%%); failed %d/%d -> %d/%d\n", n,
			len(a[n]), len(b[n]), ca, cb, 100*(cb-ca)/ca, fa, ta, fb, tb)
	}
	return regressed, nil
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.Value, s.Q1, s.Q3, s.N)
}

// failures sums failed and attempted operations over runs.
func failures(runs []*result) (failed, attempted int64) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}
