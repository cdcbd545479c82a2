// Package randx provides a deterministic, seedable random source and
// the heavy-tailed distributions used by the synthetic trace
// generator: Zipf, log-normal, Poisson, exponential, and weighted
// choice.
//
// The generator is SplitMix64: tiny state, excellent statistical
// quality for simulation purposes, and — unlike math/rand's global
// source — trivially reproducible across runs and shardable across
// goroutines by deriving child seeds.
package randx

import "math"

// Source is a deterministic SplitMix64 pseudo-random generator. It is
// not safe for concurrent use; derive one Source per goroutine with
// Split.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Split derives an independent child source. Successive calls yield
// distinct streams, so a parent can deterministically fan out work to
// shards.
func (s *Source) Split() *Source { return New(s.Uint64() ^ 0x9e3779b97f4a7c15) }

// State exposes the generator's internal state so long-running
// simulations can checkpoint their random streams.
func (s *Source) State() uint64 { return s.state }

// Restore rewinds the generator to a state previously captured with
// State; the subsequent draw sequence repeats exactly.
func (s *Source) Restore(state uint64) { s.state = state }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n ≤ 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int64n returns a uniform int64 in [0, n). It panics if n ≤ 0.
func (s *Source) Int64n(n int64) int64 {
	if n <= 0 {
		panic("randx: Int64n with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// NormFloat64 returns a standard normal variate (Box–Muller, one of
// the pair; simple and adequate for workload synthesis).
func (s *Source) NormFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		v := s.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Exp returns an exponential variate with the given mean.
func (s *Source) Exp(mean float64) float64 { return mean * s.ExpFloat64() }

// LogNormal returns exp(N(mu, sigma²)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Poisson returns a Poisson(lambda) variate. For small lambda it uses
// Knuth's product method; for large lambda a normal approximation,
// which is ample for event-count synthesis.
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := int(math.Round(lambda + math.Sqrt(lambda)*s.NormFloat64()))
	if n < 0 {
		return 0
	}
	return n
}

// Zipf draws integers in [1, n] with P(k) ∝ 1/k^alpha via an exact
// cumulative table and binary search. Setup is O(n), each draw is
// O(log n) with no rejection loop; the synthetic generator only needs
// n up to a few million, for which the table is cheap and the
// distribution is exact.
type Zipf struct {
	src *Source
	cum []float64 // cum[k-1] = Σ_{i≤k} i^−α, normalized to end at 1
}

// NewZipf builds a Zipf sampler over [1, n] with exponent alpha.
func NewZipf(src *Source, alpha float64, n int64) *Zipf {
	if n < 1 {
		panic("randx: NewZipf with n < 1")
	}
	if alpha <= 0 {
		panic("randx: NewZipf with alpha <= 0")
	}
	cum := make([]float64, n)
	total := 0.0
	for k := int64(1); k <= n; k++ {
		total += math.Exp(-alpha * math.Log(float64(k)))
		cum[k-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{src: src, cum: cum}
}

// Next returns the next Zipf variate in [1, n].
func (z *Zipf) Next() int64 {
	u := z.src.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo + 1)
}

// Weighted selects indices in proportion to non-negative weights.
type Weighted struct {
	cum   []float64
	total float64
}

// NewWeighted builds a weighted sampler. It panics if no weight is
// positive.
func NewWeighted(weights []float64) *Weighted {
	w := &Weighted{cum: make([]float64, len(weights))}
	for i, x := range weights {
		if x < 0 {
			panic("randx: negative weight")
		}
		w.total += x
		w.cum[i] = w.total
	}
	if w.total <= 0 {
		panic("randx: all weights zero")
	}
	return w
}

// Pick returns a weighted index using src.
func (w *Weighted) Pick(src *Source) int {
	x := src.Float64() * w.total
	// Binary search the cumulative table.
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
