// Package stats provides the small set of descriptive statistics and
// growth-fitting helpers the experiment harness needs. All functions are
// deterministic and allocation-light; they operate on float64 slices and
// never mutate their inputs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element; +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element; -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation; 0 for fewer than two
// elements.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks; it panics on an empty slice or an
// out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	// Equal closest ranks (including ties in the data) take the value
	// directly: interpolating a*(1-f) + a*f can differ from a in the
	// last bit, and a quantile of a sample that holds one value must be
	// that value.
	if lo == hi || sorted[lo] == sorted[hi] {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min, Max float64
	P50, P95 float64
}

// Summarize computes a Summary; zero value for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		P50:    Percentile(xs, 50),
		P95:    Percentile(xs, 95),
	}
}

// String renders the summary in the compact one-line form used by
// experiment notes.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.0f p50=%.1f p95=%.1f max=%.0f",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.Max)
}

// LinearFit returns slope and intercept of the least-squares line through
// (x, y) points. It panics unless len(xs) == len(ys) >= 2 and the xs are
// not all equal.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: LinearFit needs >= 2 equal-length samples")
	}
	mx, my := Mean(xs), Mean(ys)
	num, den := 0.0, 0.0
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		panic("stats: LinearFit with constant x")
	}
	slope = num / den
	return slope, my - slope*mx
}

// PowerLawExponent fits y = c·x^e by regressing log y on log x and
// returns e: the growth exponent of a measured quantity (e.g. message
// bytes as a function of n, checking Section V's "polynomial in n"
// bit-complexity claim in experiment E5). All inputs must be positive.
func PowerLawExponent(xs, ys []float64) float64 {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: PowerLawExponent needs positive samples")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	slope, _ := LinearFit(lx, ly)
	return slope
}
