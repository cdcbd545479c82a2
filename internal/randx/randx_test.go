package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if New(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	equal := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("split children produced %d equal values in 1000 draws", equal)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(2)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(3)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ≈1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(5)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.1 {
		t.Errorf("exponential mean = %v, want ≈5", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 25, 100} {
		s := New(7)
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if New(1).Poisson(0) != 0 || New(1).Poisson(-1) != 0 {
		t.Error("Poisson of non-positive lambda should be 0")
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	s := New(8)
	z := NewZipf(s, 1.2, 1000)
	counts := make(map[int64]int)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 1 || v > 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[10] {
		t.Errorf("Zipf not skewed: c1=%d c2=%d c10=%d", counts[1], counts[2], counts[10])
	}
	// Rank 1 should dominate: with alpha=1.2, P(1) ≈ 18%.
	if frac := float64(counts[1]) / n; frac < 0.10 || frac > 0.30 {
		t.Errorf("Zipf P(1) = %v, want ≈0.18", frac)
	}
}

func TestZipfAlphaOne(t *testing.T) {
	s := New(9)
	z := NewZipf(s, 1.0, 100)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 1 || v > 100 {
			t.Fatalf("Zipf(α=1) out of range: %d", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(New(1), 0, 10) },
		func() { NewZipf(New(1), 1.1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("NewZipf with bad args did not panic")
				}
			}()
			f()
		}()
	}
}

func TestWeightedDistribution(t *testing.T) {
	w := NewWeighted([]float64{1, 0, 3})
	s := New(10)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Pick(s)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ≈3", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWeighted(all zero) did not panic")
		}
	}()
	NewWeighted([]float64{0, 0})
}

func TestInt64nRange(t *testing.T) {
	s := New(21)
	for i := 0; i < 10000; i++ {
		v := s.Int64n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int64n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int64n(0) did not panic")
		}
	}()
	s.Int64n(0)
}

func TestBoolProbability(t *testing.T) {
	s := New(22)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bool(0.3) fraction = %v", frac)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1.1) {
		t.Error("Bool(>1) returned false")
	}
}

func TestNewWeightedNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight accepted")
		}
	}()
	NewWeighted([]float64{1, -1})
}

func TestStateRestore(t *testing.T) {
	s := New(99)
	for i := 0; i < 10; i++ {
		s.Uint64()
	}
	st := s.State()
	want := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	s.Restore(st)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("draw %d after Restore = %d, want %d", i, got, w)
		}
	}
	// A fresh source restored to the same state replays the stream too.
	fresh := New(0)
	fresh.Restore(st)
	if fresh.Uint64() != want[0] {
		t.Fatal("restored fresh source diverged")
	}
}
