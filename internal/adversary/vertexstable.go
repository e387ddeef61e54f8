package adversary

import (
	"fmt"
	"math/rand"

	"kset/internal/graph"
)

// VertexStableRoot is the weakest dynamic-network premise under which the
// paper's machinery still binds: a fixed root component — a clique of
// rootSize processes containing an apex with a perpetual edge to every
// process — while the entire periphery is rewired randomly every round,
// forever. The perpetual part alone already guarantees Psrcs(1) (the
// apex is a common 2-source of every pair, so MinK = 1 and Theorem 1
// bounds the decisions by a single value), yet no round's graph ever
// repeats: like Churn, the sequence never becomes constant, so
// VertexStableRoot deliberately does not implement rounds.Stabilizer and
// exercises Algorithm 1's "correct in all runs" claim plus the 12n
// fallback round bound of sim.Spec.MaxRounds. The transient periphery
// edges are exactly the stale-edge diet of the line-24 purge; experiment
// E15 measures how long they survive inside approximation graphs.
//
// Graph(r) is deterministic in (seed, r).
type VertexStableRoot struct {
	n        int
	rootSize int
	p        float64
	seed     int64
	base     *graph.Digraph
}

// NewVertexStableRoot returns a vertex-stable-root adversary on n
// processes: processes 0..rootSize-1 form the perpetual root clique, a
// seeded apex among them has a perpetual edge to every process, and each
// round every other ordered pair touching the periphery appears
// independently with probability p.
func NewVertexStableRoot(n, rootSize int, p float64, seed int64) *VertexStableRoot {
	if rootSize < 1 || rootSize > n {
		panic(fmt.Sprintf("adversary: VertexStableRoot rootSize=%d out of [1,%d]", rootSize, n))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("adversary: VertexStableRoot p=%v out of [0,1]", p))
	}
	base := graph.NewFullDigraph(n)
	base.AddSelfLoops()
	for u := 0; u < rootSize; u++ {
		for v := 0; v < rootSize; v++ {
			base.AddEdge(u, v)
		}
	}
	apex := rand.New(rand.NewSource(MixSeed(seed, 0))).Intn(rootSize)
	for v := 0; v < n; v++ {
		base.AddEdge(apex, v)
	}
	return &VertexStableRoot{n: n, rootSize: rootSize, p: p, seed: seed, base: base}
}

// N implements rounds.Adversary.
func (a *VertexStableRoot) N() int { return a.n }

// Graph implements rounds.Adversary: the perpetual base plus fresh
// random edges on every ordered pair that touches the periphery.
func (a *VertexStableRoot) Graph(r int) *graph.Digraph {
	if r < 1 {
		panic(fmt.Sprintf("adversary: round %d < 1", r))
	}
	rng := rand.New(rand.NewSource(MixSeed(a.seed, r)))
	g := a.base.Clone()
	for u := 0; u < a.n; u++ {
		for v := 0; v < a.n; v++ {
			if u == v || (u < a.rootSize && v < a.rootSize) || g.HasEdge(u, v) {
				continue
			}
			if rng.Float64() < a.p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Base returns a copy of the perpetual part of every round graph: the
// root clique, the apex's out-edges, and all self-loops. An edge of an
// approximation graph that is not in Base is stale in the sense of E15 —
// it was real in some recent round but is not part of the stable
// structure the purge (line 24) converges to.
func (a *VertexStableRoot) Base() *graph.Digraph { return a.base.Clone() }
