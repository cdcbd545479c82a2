package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1 and q3 by the method of Python's
// statistics.quantiles(xs, n=4) (the default, "exclusive"), so spreads
// printed here match the ones an external check computes from the same
// values. With one value both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100)
// of xs; 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(0, min(k, len(s))-1)]
}

// rankSumP returns the two-sided p-value of the Wilcoxon rank-sum
// (Mann-Whitney U) test that a and b come from one distribution. It is
// exact for small tie-free samples and otherwise uses the normal
// approximation with tie correction, as benchstat does.
func rankSumP(a, b []float64) float64 {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 1
	}
	type obs struct {
		v    float64
		from int
	}
	all := make([]obs, 0, m+n)
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	var rankA, tieTerm float64
	ties := false
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // mean of ranks i+1 .. j
		for k := i; k < j; k++ {
			if all[k].from == 0 {
				rankA += mid
			}
		}
		if t := float64(j - i); t > 1 {
			ties = true
			tieTerm += t*t*t - t
		}
		i = j
	}
	u := rankA - float64(m*(m+1))/2
	if !ties && m+n <= 60 {
		return exactUP(m, n, u)
	}
	mu := float64(m*n) / 2
	N := float64(m + n)
	sigma := math.Sqrt(float64(m*n) / 12 * ((N + 1) - tieTerm/(N*(N-1))))
	if sigma == 0 {
		return 1
	}
	z := (math.Abs(u-mu) - 0.5) / sigma
	if z < 0 {
		z = 0
	}
	return math.Min(1, math.Erfc(z/math.Sqrt2))
}

// exactUP is the exact two-sided p-value of U for tie-free samples of
// sizes m and n: the share of all rank arrangements whose U lies at
// least as far from its mean as u.
func exactUP(m, n int, u float64) float64 {
	// dp[i][j][k] counts orderings of i a-values and j b-values with
	// U = k. The largest value is either an a, which beats all j
	// b-values, or a b, which adds nothing.
	dp := make([][][]float64, m+1)
	for i := 0; i <= m; i++ {
		dp[i] = make([][]float64, n+1)
		for j := 0; j <= n; j++ {
			d := make([]float64, i*j+1)
			if i == 0 || j == 0 {
				d[0] = 1
			} else {
				for k := range d {
					if k >= j && k-j < len(dp[i-1][j]) {
						d[k] += dp[i-1][j][k-j]
					}
					if k < len(dp[i][j-1]) {
						d[k] += dp[i][j-1][k]
					}
				}
			}
			dp[i][j] = d
		}
	}
	dist := dp[m][n]
	mu := float64(m*n) / 2
	dev := math.Abs(u - mu)
	var total, tail float64
	for k, c := range dist {
		total += c
		if math.Abs(float64(k)-mu) >= dev-1e-9 {
			tail += c
		}
	}
	return math.Min(1, tail/total)
}
