package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Fatal("zero Summary not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
}

// Property: the Welford running mean agrees with the naive sum/n.
func TestSummaryMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var s Summary
		var sum float64
		for _, x := range clean {
			s.Add(x)
			sum += x
		}
		return math.Abs(s.Mean()-sum/float64(len(clean))) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile of empty should be 0")
	}
}

func TestNewBox(t *testing.T) {
	b := NewBox([]float64{7, 1, 3, 5, 9})
	if b.N != 5 || b.Min != 1 || b.Max != 9 || b.Median != 5 {
		t.Fatalf("Box = %+v", b)
	}
	if b.Mean != 5 {
		t.Fatalf("Mean = %v", b.Mean)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Fatalf("Q1/Q3 = %v/%v", b.Q1, b.Q3)
	}
	if (NewBox(nil) != Box{}) {
		t.Fatal("empty box not zero")
	}
}

// Property: box stats are order-invariant and ordered
// min ≤ q1 ≤ median ≤ q3 ≤ max.
func TestBoxProperties(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		b := NewBox(clean)
		shuffled := append([]float64(nil), clean...)
		sort.Sort(sort.Reverse(sort.Float64Slice(shuffled)))
		b2 := NewBox(shuffled)
		if b != b2 {
			return false
		}
		if b.N == 0 {
			return true
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMissRatioBuckets(t *testing.T) {
	r := NewMissRatioBuckets()
	if r.Len() != 11 {
		t.Fatalf("Len = %d, want 11 ranges", r.Len())
	}
	if got := r.Label(0); got != "1%-5%" {
		t.Fatalf("Label(0) = %q", got)
	}
	if got := r.Label(10); got != "90%-100%" {
		t.Fatalf("Label(10) = %q", got)
	}
	// Below 1% is dropped, as in the paper's histograms.
	if r.Add(0.005) {
		t.Error("sub-1% value should be dropped")
	}
	for _, v := range []float64{0.01, 0.04, 0.05, 0.5, 0.99, 1.0} {
		if !r.Add(v) {
			t.Errorf("value %v dropped", v)
		}
	}
	if r.Count(0) != 2 { // 0.01, 0.04
		t.Errorf("bucket 1%%-5%% = %d, want 2", r.Count(0))
	}
	if r.Count(1) != 1 { // 0.05
		t.Errorf("bucket 5%%-10%% = %d, want 1", r.Count(1))
	}
	if r.Count(10) != 2 { // 0.99, 1.0
		t.Errorf("bucket 90%%-100%% = %d, want 2", r.Count(10))
	}
	if r.Total() != 6 {
		t.Errorf("Total = %d", r.Total())
	}
	// "days with more than 5% misses" = everything from the 5%-10%
	// bucket upward.
	if got := r.CountAtLeast(0.05); got != 4 {
		t.Errorf("CountAtLeast(0.05) = %d, want 4", got)
	}
}

func TestRangeBucketsPanics(t *testing.T) {
	for _, bounds := range [][]float64{{1}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRangeBuckets(%v) did not panic", bounds)
				}
			}()
			NewRangeBuckets(bounds)
		}()
	}
}

// Property: every in-range value lands in exactly the bucket whose
// bounds bracket it.
func TestRangeBucketsPlacementProperty(t *testing.T) {
	bounds := []float64{0, 0.1, 0.25, 0.5, 1}
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 1.2) // some values out of range
		r := NewRangeBuckets(bounds)
		in := r.Add(x)
		if x >= 1 {
			return !in
		}
		if !in {
			return false
		}
		for i := 0; i < r.Len(); i++ {
			want := 0
			if bounds[i] <= x && x < bounds[i+1] {
				want = 1
			}
			if r.Count(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioHelpers(t *testing.T) {
	if ReductionRatio(0, 5) != 0 {
		t.Error("ReductionRatio with zero base should be 0")
	}
	if got := ReductionRatio(100, 63); math.Abs(got-0.37) > 1e-9 {
		t.Errorf("ReductionRatio = %v, want 0.37", got)
	}
	// Negative reduction when the "improved" value is worse.
	if got := ReductionRatio(100, 150); got != -0.5 {
		t.Errorf("ReductionRatio = %v, want -0.5", got)
	}
}

func TestRangeBucketsAccessors(t *testing.T) {
	r := NewMissRatioBuckets()
	r.Add(0.02)
	r.Add(0.55)
	counts := r.Counts()
	if len(counts) != r.Len() || counts[0] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
	labels := r.Labels()
	if len(labels) != r.Len() || labels[6] != "50%-60%" {
		t.Fatalf("Labels = %v", labels)
	}
	// Fractional bound labels render with %g.
	fr := NewRangeBuckets([]float64{0.011, 0.025, 1.0000001})
	if got := fr.Label(0); got != "1.1%-2.5%" {
		t.Fatalf("fractional label = %q", got)
	}
}

func TestBoxString(t *testing.T) {
	b := NewBox([]float64{1, 2, 3})
	if !strings.Contains(b.String(), "med=2.0000") {
		t.Fatalf("Box.String = %q", b.String())
	}
}
