package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102, 98, 100}
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"same", tight, tight, true, 0.1, within},
		{"small change within bound", tight, scale(tight, 1.05), true, 0.1, within},
		{"slower beyond bound", tight, scale(tight, 1.2), true, 0.1, worse},
		{"faster beyond bound", tight, scale(tight, 0.8), true, 0.1, better},
		{"throughput drop is worse", tight, scale(tight, 0.8), false, 0.1, worse},
		{"throughput rise is better", tight, scale(tight, 1.2), false, 0.1, better},
		{"wide spread is unresolved", tight, []float64{60, 90, 120, 150, 100, 70, 130}, true, 0.1, unresolved},
		{"wide spread but separated and slower", []float64{50, 70, 90, 60, 80}, []float64{200, 300, 250, 220, 280}, true, 0.1, worse},
		{"wide spread but separated and faster", []float64{200, 300, 250, 220, 280}, []float64{50, 70, 90, 60, 80}, true, 0.1, better},
		{"overlapping wide spread with a big delta", []float64{50, 100, 150, 100, 100}, []float64{140, 200, 260, 200, 200}, true, 0.25, unresolved},
		{"one value each: no noise estimate", []float64{100}, []float64{150}, true, 0.1, unresolved},
	}
	for _, c := range cases {
		if got := judge(summarize("", c.a), summarize("", c.b), c.lower, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// fakeResult builds a result whose every end-to-end metric has the
// given samples.
func fakeResult(workload, digest string, xs []float64, failed int64) *result {
	r := &result{Workload: workload, Digest: digest, Attempted: 100, Failed: failed,
		SampleDatasets: make([]int, len(xs)), Metrics: map[string]summary{}, HostRef: summarize("ms", []float64{50})}
	for _, m := range endToEnd {
		r.Metrics[m.name] = summarize(m.unit, xs)
	}
	return r
}

func TestCompare(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2}
	side := func(xs []float64, failed int64, digest string) map[string][]*result {
		return map[string][]*result{wlSweep4: {fakeResult(wlSweep4, digest, xs, failed)}}
	}
	// runs builds a side of several runs whose samples are wide but
	// whose reported values agree closely.
	runs := func(center float64) map[string][]*result {
		var rs []*result
		for i, v := range []float64{center, center * 1.02, center * 0.98, center * 1.01} {
			rs = append(rs, fakeResult(wlSweep4, fmt.Sprint("d", i), []float64{v * 0.6, v, v * 1.4}, 0))
		}
		return map[string][]*result{wlSweep4: rs}
	}
	// twoSets builds a single run over two datasets that cost 1 and 3,
	// scaled by f; it must be judged on the noise within each dataset,
	// not on the 3x between them.
	twoSets := func(f float64) map[string][]*result {
		r := fakeResult(wlSweep4, "d", scale([]float64{1, 3, 1.02, 3.03, 0.99, 2.98}, f), 0)
		r.SampleDatasets = []int{0, 1, 0, 1, 0, 1}
		for name, m := range r.Metrics {
			m.Value = 2 * f
			r.Metrics[name] = m
		}
		return map[string][]*result{wlSweep4: {r}}
	}
	cases := []struct {
		name      string
		a, b      map[string][]*result
		regressed bool
		err       string
	}{
		{"agreeing runs", side(base, 0, "d"), side(base, 0, "d"), false, ""},
		// Every metric moves the same way, so some get worse whichever
		// direction is better for them.
		{"a regression", side(base, 0, "d"), side(scale(base, 1.5), 0, "d"), true, ""},
		{"more failures", side(base, 0, "d"), side(base, 1, "d"), true, ""},
		{"different inputs", side(base, 0, "d1"), side(base, 0, "d2"), false, "input digests differ"},
		{"nothing in common", side(base, 0, "d"), map[string][]*result{wlDaemon: {fakeResult(wlDaemon, "d", base, 0)}}, false, "no workload"},
		{"several runs judged run to run", runs(10), runs(10.1), false, ""},
		{"several runs, a regression", runs(10), runs(15), true, ""},
		{"single runs over two datasets", twoSets(1), twoSets(1.02), false, ""},
		{"single runs over two datasets, a regression", twoSets(1), twoSets(1.5), true, ""},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compare(&out, c.a, c.b)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err = %v, want %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.regressed, out.String())
		}
		if !strings.Contains(out.String(), "host.ref_ms") {
			t.Errorf("%s: output lacks the host.ref_ms line:\n%s", c.name, out.String())
		}
		if strings.Contains(out.String(), unresolved) {
			t.Errorf("%s: a verdict is unresolved:\n%s", c.name, out.String())
		}
	}
}
