// Package approx implements approximate agreement on graphs — the
// second algorithm family served by this stack (after k-set agreement),
// following the problem statement of Alistarh–Ellen–Rybicki ("Wait-free
// approximate agreement on graphs") transplanted into the paper's
// synchronous communication-closed round model: processes start on
// vertices of a fixed target graph (a path P_V or a cycle C_V), exchange
// values every round, and must terminate on pairwise-adjacent vertices
// while staying inside the convex hull (path) or minimal covering arc
// (cycle) of the inputs.
//
// # Algorithm
//
// Each process keeps a position x on the target graph in fixed-point
// arithmetic (scale fractional resolution) and runs phase-based
// amortized midpoint: rounds are grouped into phases of
// PhaseLen(n) = max(n-1, 1) rounds; during a phase each process floods
// an interval [lo, hi] — seeded with its own position at the phase
// start, widened every round by every interval it hears — and at the
// phase end jumps to the interval midpoint. After a fixed, globally
// known number of rounds (Options.DecideRound) everyone decides the
// vertex nearest its position.
//
// Why phases: over any window of n-1 consecutive rounds whose
// communication graphs are all the same rooted digraph (what a
// stabilized adversary with one root component provides), every process
// is causally influenced by every root-component member — the window's
// graph product is "nonsplit" in the sense of Charron-Bost, Függer and
// Nowak ("Approximate Consensus in Highly Dynamic Networks"), so any
// two phase-end intervals share a common point and the global value
// range at least halves per phase (up to one unit of fixed-point
// rounding). phasesFor(V) phases after stabilization shrink the range
// below half a vertex, so rounding to the nearest vertex lands every
// process on one of two adjacent vertices. Midpoints never leave the
// hull of the values heard, so validity holds unconditionally — even
// before stabilization, under arbitrary round graphs.
//
// On cycles there is no global order, so intervals travel in each
// sender's own lift of the cycle's universal cover; receivers shift a
// heard interval by the multiple of the cycle length that brings its
// midpoint nearest their own position. When all inputs fit in an arc
// shorter than half the cycle, every such shift reconstructs the
// geodesic representative and the path analysis applies verbatim; for
// wider input spans approximate agreement on cycles is not solvable in
// general (Alistarh–Ellen–Rybicki), and this implementation stays
// deterministic but promises only termination and hull-free validity.
//
// All state is integer arithmetic on int64, so runs are bit-identical
// across the sequential, concurrent, and distributed executors — the
// property the differential harness (runtime.Diff) enforces.
package approx

import (
	"fmt"
	"math/bits"

	"kset/internal/rounds"
)

// Shape selects the target graph family.
type Shape string

const (
	// Path is the path graph P_V on vertices 0..V-1.
	Path Shape = "path"
	// Cycle is the cycle graph C_V on vertices 0..V-1 (V-1 adjacent to 0).
	Cycle Shape = "cycle"
)

// fracBits is the fixed-point resolution: positions are vertex indices
// scaled by scale. Phase midpoints lose at most one unit per phase to
// flooring, a drift of phasesFor(V) ≪ scale/2 over any run, so the
// final round-to-nearest-vertex step is unaffected.
const fracBits = 24

// scale is 1 << fracBits.
const scale = 1 << fracBits

// maxVertices bounds the target graph so that every intermediate sum
// (2·position ± cycle length, scaled) stays far inside int64.
const maxVertices = 1 << 16

// Graph names one target graph.
type Graph struct {
	// Shape is Path or Cycle; the zero value means Path.
	Shape Shape
	// V is the number of vertices; 0 means the n+1 default chosen by
	// Options.Normalize, so the canonical 1..n proposal vector is valid.
	V int
}

// Options parameterizes one approximate-agreement run.
type Options struct {
	// Graph is the target graph the processes agree on.
	Graph Graph
	// DecideRound is the round in which every process decides; 0 means
	// DecideRoundFor's bound, computed by Normalize. It must be a
	// positive multiple of PhaseLen(n) — decisions happen on the fresh
	// value of a just-completed phase.
	DecideRound int
}

// PhaseLen returns the phase length for n processes: n-1 rounds (the
// window over which a fixed rooted round graph becomes nonsplit), at
// least 1.
func PhaseLen(n int) int {
	if n <= 2 {
		return 1
	}
	return n - 1
}

// phasesFor returns how many fully-stabilized phases guarantee the
// global range is below half a vertex: the range starts at most V·scale
// and at least halves per phase, so ceil(log2(2V)) phases suffice, plus
// one phase of margin absorbing fixed-point rounding drift.
func phasesFor(v int) int {
	return bits.Len(uint(2*v)) + 1
}

// DecideRoundFor returns the earliest phase-aligned decide round with
// phasesFor(v) full phases after round stab (the first round from which
// the communication graphs no longer change).
func DecideRoundFor(n, v, stab int) int {
	l := PhaseLen(n)
	if stab < 1 {
		stab = 1
	}
	// First phase whose rounds all lie in the stable suffix: phase p
	// covers rounds ((p-1)l, pl], so it is stable iff (p-1)l+1 >= stab.
	p0 := (stab-2+l)/l + 1
	if stab == 1 {
		p0 = 1
	}
	return (p0 - 1 + phasesFor(v)) * l
}

// Normalize fills defaults (path graph on n+1 vertices, the
// DecideRoundFor bound given the adversary's stabilization round) and
// validates the options against n and the proposals. stab is the
// adversary's stabilization round when it has one; stabilizes=false
// substitutes a generous 8n budget (no convergence guarantee exists
// without stabilization — the oracles then claim only termination and
// validity).
func (o *Options) Normalize(n int, proposals []int64, stab int, stabilizes bool) error {
	if n < 1 {
		return fmt.Errorf("approx: %d processes", n)
	}
	switch o.Graph.Shape {
	case "":
		o.Graph.Shape = Path
	case Path, Cycle:
	default:
		return fmt.Errorf("approx: unknown graph shape %q (want %q or %q)", o.Graph.Shape, Path, Cycle)
	}
	if o.Graph.V == 0 {
		o.Graph.V = n + 1
	}
	if o.Graph.V < 1 || o.Graph.V > maxVertices {
		return fmt.Errorf("approx: %d vertices out of range [1,%d]", o.Graph.V, maxVertices)
	}
	if o.Graph.Shape == Cycle && o.Graph.V < 3 {
		return fmt.Errorf("approx: cycle needs >= 3 vertices, got %d", o.Graph.V)
	}
	for i, p := range proposals {
		if p < 0 || p >= int64(o.Graph.V) {
			return fmt.Errorf("approx: p%d proposes vertex %d outside [0,%d)", i+1, p, o.Graph.V)
		}
	}
	if o.DecideRound == 0 {
		if !stabilizes {
			stab = 8 * n
		}
		o.DecideRound = DecideRoundFor(n, o.Graph.V, stab)
	}
	if l := PhaseLen(n); o.DecideRound < l || o.DecideRound%l != 0 {
		return fmt.Errorf("approx: decide round %d is not a positive multiple of the phase length %d", o.DecideRound, l)
	}
	return nil
}

// Message is one process's per-round broadcast: the interval it has
// accumulated this phase (positions scaled by scale; on cycles, in the
// sender's own lift of the universal cover) and whether it has decided.
type Message struct {
	lo, hi  int64
	decided bool
}

// Process runs the algorithm for one process. Create with NewFactory.
type Process struct {
	self, n  int
	opts     Options
	period   int64 // cycle length, scaled (0 on paths)
	phaseLen int

	proposal int64
	x        int64 // position at the current phase start, scaled
	lo, hi   int64 // interval accumulated this phase

	decided     bool
	decision    int64
	decideRound int

	// out double-buffers the broadcast so a round-r message stays
	// intact while round r+1's is being built (mirrors core.Process).
	out [2]Message
}

var _ rounds.Algorithm = (*Process)(nil)
var _ rounds.Decider = (*Process)(nil)

// NewFactory returns the per-process constructor for one run. opts must
// already be normalized (Options.Normalize); proposals[i] is process i's
// starting vertex.
func NewFactory(proposals []int64, opts Options) func(self int) rounds.Algorithm {
	return func(self int) rounds.Algorithm {
		return &Process{proposal: proposals[self], opts: opts}
	}
}

// Init implements rounds.Algorithm.
func (p *Process) Init(self, n int) {
	p.self, p.n = self, n
	p.phaseLen = PhaseLen(n)
	if p.opts.Graph.Shape == Cycle {
		p.period = int64(p.opts.Graph.V) * scale
	}
	p.x = p.proposal * scale
	p.lo, p.hi = p.x, p.x
}

// Send implements rounds.Algorithm: broadcast the current interval.
func (p *Process) Send(r int) any {
	m := &p.out[r&1]
	m.lo, m.hi, m.decided = p.lo, p.hi, p.decided
	return m
}

// Transition implements rounds.Algorithm: widen the phase interval by
// every heard interval (lifted into this process's frame on cycles),
// jump to the midpoint at phase boundaries, and decide at the fixed
// decide round.
func (p *Process) Transition(r int, recv []any) {
	for _, raw := range recv {
		if raw == nil {
			continue
		}
		m := raw.(*Message)
		lo, hi := m.lo, m.hi
		if p.period != 0 {
			lo, hi = p.lift(lo, hi)
		}
		if lo < p.lo {
			p.lo = lo
		}
		if hi > p.hi {
			p.hi = hi
		}
	}
	if r%p.phaseLen == 0 {
		// Phase end: amortized midpoint. Arithmetic shift floors, so the
		// new position never leaves [lo, hi].
		p.x = (p.lo + p.hi) >> 1
		if p.period != 0 {
			p.x = floorMod(p.x, p.period)
		}
		p.lo, p.hi = p.x, p.x
	}
	if r == p.opts.DecideRound && !p.decided {
		p.decided = true
		p.decision = p.vertexOf(p.x)
		p.decideRound = r
	}
}

// lift shifts a heard interval by the multiple of the cycle length that
// brings its midpoint nearest this process's phase-start position —
// the geodesic representative whenever the interval is narrower than
// half the cycle.
func (p *Process) lift(lo, hi int64) (int64, int64) {
	// k = round((x - mid) / period), computed without halving losses by
	// doubling: mid2 = lo + hi is twice the midpoint.
	k := floorDiv(2*p.x-(lo+hi)+p.period, 2*p.period)
	return lo + k*p.period, hi + k*p.period
}

// vertexOf rounds a scaled position to its nearest vertex.
func (p *Process) vertexOf(x int64) int64 {
	v := floorDiv(x+scale/2, scale)
	if p.period != 0 {
		v = floorMod(v, int64(p.opts.Graph.V))
	}
	return v
}

// Proposal implements rounds.Decider.
func (p *Process) Proposal() int64 { return p.proposal }

// Decided implements rounds.Decider.
func (p *Process) Decided() bool { return p.decided }

// Decision implements rounds.Decider.
func (p *Process) Decision() (int64, int) { return p.decision, p.decideRound }

// Position returns the process's current scaled position (the value of
// the last completed phase) — test and experiment instrumentation.
func (p *Process) Position() int64 { return p.x }

// Dist returns the graph distance between two vertices of g.
func Dist(g Graph, a, b int64) int64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if g.Shape == Cycle {
		if w := int64(g.V) - d; w < d {
			d = w
		}
	}
	return d
}

// Span returns the length of the minimal interval (path) or arc (cycle)
// containing all the given vertices, and its start vertex.
func Span(g Graph, vs []int64) (start, length int64) {
	if len(vs) == 0 {
		return 0, 0
	}
	if g.Shape != Cycle {
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi - lo
	}
	// Cycle: the minimal covering arc is the complement of the largest
	// gap between circularly-sorted occupied vertices.
	present := make(map[int64]bool, len(vs))
	var occ []int64
	for _, v := range vs {
		if !present[v] {
			present[v] = true
			occ = append(occ, v)
		}
	}
	sortInt64(occ)
	if len(occ) == 1 {
		return occ[0], 0
	}
	V := int64(g.V)
	bestGap, bestAfter := int64(-1), int64(0)
	for i, v := range occ {
		next := occ[(i+1)%len(occ)]
		gap := floorMod(next-v, V)
		if gap > bestGap {
			bestGap, bestAfter = gap, v
		}
	}
	start = floorMod(bestAfter+bestGap, V)
	return start, V - bestGap
}

// InSpan reports whether vertex v lies in the interval/arc of the given
// start and length on g.
func InSpan(g Graph, start, length, v int64) bool {
	if g.Shape != Cycle {
		return v >= start && v <= start+length
	}
	return floorMod(v-start, int64(g.V)) <= length
}

func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// floorDiv is division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// floorMod is the non-negative remainder for positive b.
func floorMod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
