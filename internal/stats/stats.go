// Package stats implements the statistical summaries the paper's
// figures report: range-bucketed day counts (Figures 1 and 6), box
// statistics with means (Figure 8), and the running mean the workload
// fit uses.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a running (Welford) mean. The zero value is ready to use.
type Summary struct {
	n    int64
	mean float64
}

// Add folds x into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Box holds the five-number summary plus the mean, as drawn in the
// paper's Figure 8 box plot (the green triangle is the mean).
type Box struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
}

// NewBox computes box statistics over xs. It copies and sorts its
// input; an empty input yields a zero Box.
func NewBox(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return Box{
		N:      len(s),
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted data using
// linear interpolation between order statistics (type-7, the
// default of most statistics packages).
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the box as one line.
func (b Box) String() string {
	return fmt.Sprintf("n=%d min=%.4f q1=%.4f med=%.4f q3=%.4f max=%.4f mean=%.4f",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}

// RangeBuckets buckets values into labelled half-open ranges
// [lo, hi), as in the paper's "Miss Ratio Ranges" histograms. Values
// below the first bound or at/above the last are dropped (Figure 1
// likewise omits days with <1% misses from the range histogram).
type RangeBuckets struct {
	bounds []float64
	counts []int
}

// MissRatioBounds are the bucket edges of Figures 1 and 6:
// 1%-5%, 5%-10%, 10%-20%, …, 90%-100%.
var MissRatioBounds = []float64{0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.0000001}

// NewRangeBuckets builds buckets from ascending bounds; bucket i
// covers [bounds[i], bounds[i+1]). At least two bounds are required.
func NewRangeBuckets(bounds []float64) *RangeBuckets {
	if len(bounds) < 2 {
		panic("stats: NewRangeBuckets needs at least two bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: NewRangeBuckets bounds must ascend")
		}
	}
	return &RangeBuckets{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int, len(bounds)-1),
	}
}

// NewMissRatioBuckets builds the paper's miss-ratio range histogram.
func NewMissRatioBuckets() *RangeBuckets { return NewRangeBuckets(MissRatioBounds) }

// Add counts x into its bucket; out-of-range values are ignored and
// reported false.
func (r *RangeBuckets) Add(x float64) bool {
	if x < r.bounds[0] || x >= r.bounds[len(r.bounds)-1] {
		return false
	}
	// Binary search for the bucket.
	lo, hi := 0, len(r.counts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.bounds[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	r.counts[lo]++
	return true
}

// Len returns the number of buckets.
func (r *RangeBuckets) Len() int { return len(r.counts) }

// Count returns the count in bucket i.
func (r *RangeBuckets) Count(i int) int { return r.counts[i] }

// Counts returns a copy of all bucket counts.
func (r *RangeBuckets) Counts() []int { return append([]int(nil), r.counts...) }

// Label returns the "lo%-hi%" label of bucket i.
func (r *RangeBuckets) Label(i int) string {
	return fmt.Sprintf("%s-%s", percent(r.bounds[i]), percent(r.bounds[i+1]))
}

// Labels returns all bucket labels.
func (r *RangeBuckets) Labels() []string {
	out := make([]string, r.Len())
	for i := range out {
		out[i] = r.Label(i)
	}
	return out
}

// Total returns the number of values counted (excluding dropped).
func (r *RangeBuckets) Total() int {
	t := 0
	for _, c := range r.counts {
		t += c
	}
	return t
}

// CountAtLeast sums the counts of buckets whose lower bound is ≥ lo.
// The paper's "days with more than 5% file misses" is
// CountAtLeast(0.05).
func (r *RangeBuckets) CountAtLeast(lo float64) int {
	t := 0
	for i := range r.counts {
		if r.bounds[i] >= lo-1e-12 {
			t += r.counts[i]
		}
	}
	return t
}

func percent(x float64) string {
	p := x * 100
	if p > 99.999 && p < 101 {
		p = 100
	}
	if p == math.Trunc(p) {
		return fmt.Sprintf("%d%%", int(p))
	}
	return fmt.Sprintf("%.4g%%", p)
}

// ReductionRatio returns (base − improved)/base, the paper's "file
// miss reduction ratio"; it is 0 when base is 0.
func ReductionRatio(base, improved float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - improved) / base
}
