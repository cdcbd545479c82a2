package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestAcrossDatasets(t *testing.T) {
	// Dataset 0 costs about 1 and dataset 1 about 3. The value is the mean
	// of their medians; the samples stay as measured.
	xs := []float64{1, 3, 1.1, 3.3, 0.9, 2.7, 1}
	var samples []*sample
	for i, x := range xs {
		samples = append(samples, &sample{Dataset: i % 2, SetupS: x})
	}
	got := acrossDatasets("s", samples, func(s *sample) float64 { return s.SetupS })
	if got.Value != 2 || got.N != len(xs) || got.Median != 1.1 {
		t.Errorf("value %v, median %v over %d samples; want 2, 1.1 over %d", got.Value, got.Median, got.N, len(xs))
	}
	for i, x := range xs {
		if got.Samples[i] != x {
			t.Errorf("sample %d = %v, want %v as measured", i, got.Samples[i], x)
		}
	}
}

func TestSampleNoise(t *testing.T) {
	// Scaled by value/dataset median, datasets 0 and 1 spread by 10% either
	// way, not by 3x; dataset 2, sampled once, is left out.
	m := summary{Value: 2, Samples: []float64{1, 3, 1.1, 3.3, 0.9, 2.7, 7}}
	got := sampleNoise(m, []int{0, 1, 0, 1, 0, 1, 2})
	want := []float64{2, 2, 2.2, 2.2, 1.8, 1.8}
	if len(got) != len(want) {
		t.Fatalf("sampleNoise = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for p, want := range map[float64]float64{50: 5, 90: 9, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestRankSumP(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	// Complete separation of 5 vs 5: 2 of C(10,5) = 252 orderings.
	if got, want := rankSumP(a, b), 2.0/252; math.Abs(got-want) > 1e-12 {
		t.Errorf("separated p = %v, want %v", got, want)
	}
	if got := rankSumP(a, a); got < 0.99 {
		t.Errorf("identical samples p = %v, want 1", got)
	}
	interleaved := []float64{1.5, 2.5, 3.5, 4.5, 5.5}
	if got := rankSumP(a, interleaved); got < 0.3 {
		t.Errorf("interleaved p = %v, want well above 0.05", got)
	}
	big := make([]float64, 40)
	for i := range big {
		big[i] = float64(i)
	}
	if got := rankSumP(big[:20], big[20:]); got > 1e-6 {
		t.Errorf("separated 20 vs 20 (normal approximation) p = %v, want tiny", got)
	}
}
