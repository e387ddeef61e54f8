package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the incremental (streaming) counterparts of the batch
// helpers in stats.go. They exist for the sharded sweep engine
// (sim.Sweep): a sweep of thousands of trials feeds each outcome
// into these accumulators and discards it, so no per-trial slice is ever
// retained (DESIGN.md §5). All accumulators are deterministic functions
// of their observation sequence — feeding the same values in the same
// order always yields the same state, which is what makes streamed
// experiment tables byte-identical across sweep worker counts.

// Running accumulates count, mean, min, max and the population standard
// deviation of a stream one observation at a time, in O(1) memory, using
// Welford's recurrence for the variance. The zero value is ready to use.
type Running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add feeds one observation.
func (a *Running) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Running) N() int { return a.n }

// Mean returns the running arithmetic mean; 0 before any observation.
func (a *Running) Mean() float64 { return a.mean }

// Min returns the smallest observation; +Inf before any observation
// (matching the batch Min of an empty slice).
func (a *Running) Min() float64 {
	if a.n == 0 {
		return math.Inf(1)
	}
	return a.min
}

// Max returns the largest observation; -Inf before any observation
// (matching the batch Max of an empty slice).
func (a *Running) Max() float64 {
	if a.n == 0 {
		return math.Inf(-1)
	}
	return a.max
}

// StdDev returns the population standard deviation of the observations so
// far; 0 for fewer than two.
func (a *Running) StdDev() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// P2Quantile estimates a single quantile of a stream in O(1) memory with
// the P² algorithm (Jain & Chlamtac, CACM 1985): five markers track the
// min, the target quantile, the two intermediate quantiles and the max,
// and are nudged by a piecewise-parabolic update on every observation.
// For up to five observations the estimate is exact (computed from the
// buffered values with the same interpolation as the batch Percentile).
// Like Running, the state is a deterministic function of the observation
// sequence.
type P2Quantile struct {
	p    float64
	n    int
	q    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increments
}

// NewP2Quantile returns an estimator for the quantile p in (0, 1), e.g.
// 0.95 for the 95th percentile.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: P2 quantile %v out of (0,1)", p))
	}
	e := &P2Quantile{p: p}
	e.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add feeds one observation.
func (e *P2Quantile) Add(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := 0; i < 5; i++ {
				e.pos[i] = float64(i + 1)
			}
			e.want = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}
	e.n++

	// Locate the cell containing x, widening the extremes if needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.want[i] += e.inc[i]
	}

	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic marker-height prediction.
func (e *P2Quantile) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback marker-height prediction used when the parabolic
// one would violate marker monotonicity.
func (e *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// N returns the number of observations.
func (e *P2Quantile) N() int { return e.n }

// Value returns the current quantile estimate. It is exact for up to
// five observations (computed from the buffered values with the same
// interpolation as the batch Percentile) and panics before the first
// one. At exactly five the buffer doubles as the freshly initialized
// marker state — the previous implementation already returned the
// middle marker q[2] there, which is the 50th percentile regardless of
// the target quantile (for p = 0.95 and samples 1..5 that reads 3 where
// the batch estimate is 4.8).
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		panic("stats: P2Quantile.Value before any observation")
	}
	if e.n <= 5 {
		// Percentile copies (and never mutates) its input, so the
		// buffer can be passed directly.
		return Percentile(e.q[:e.n], e.p*100)
	}
	return e.q[2]
}

// Stream accumulates the same descriptive statistics as Summarize —
// count, mean, population standard deviation, min, max, p50, p95 — in
// O(1) memory. Mean/min/max/stddev are exact; the percentiles are P²
// estimates once the stream exceeds five observations. The two
// percentile markers are independent estimators, so on duplicate-heavy
// streams P50 can exceed P95 by a small margin (a property of P², found
// by the stream_prop_test battery); consumers needing monotone
// quantiles must sort the pair. The zero value is NOT ready to use;
// call NewStream.
type Stream struct {
	Running
	p50, p95 *P2Quantile
}

// NewStream returns an empty streaming summary accumulator.
func NewStream() *Stream {
	return &Stream{p50: NewP2Quantile(0.50), p95: NewP2Quantile(0.95)}
}

// Add feeds one observation.
func (s *Stream) Add(x float64) {
	s.Running.Add(x)
	s.p50.Add(x)
	s.p95.Add(x)
}

// Summary renders the accumulated state as a Summary; the zero Summary
// before any observation (matching Summarize of an empty slice).
func (s *Stream) Summary() Summary {
	if s.N() == 0 {
		return Summary{}
	}
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		StdDev: s.StdDev(),
		Min:    s.Min(),
		Max:    s.Max(),
		P50:    s.p50.Value(),
		P95:    s.p95.Value(),
	}
}
