package adversary

import (
	"math/rand"

	"kset/internal/graph"
)

// Churn is a non-stabilizing adversary: every round delivers the stable
// core plus fresh random extra edges, forever. The skeleton still
// converges to the core almost surely (each transient pair eventually
// misses a round), but no stabilization round can be promised, so Churn
// deliberately does not implement rounds.Stabilizer — it exercises the
// claim that Algorithm 1's approximation is correct "in all runs,
// regardless of the communication predicate".
//
// Graph(r) is deterministic in (seed, r): calling it twice for the same
// round returns equal graphs, as the executor contract requires.
type Churn struct {
	core *graph.Digraph
	p    float64
	seed int64
}

// NewChurn wraps a core graph (all self-loops required) with per-round
// additive noise of density p.
func NewChurn(core *graph.Digraph, p float64, seed int64) *Churn {
	n := core.N()
	for v := 0; v < n; v++ {
		if !core.HasNode(v) || !core.HasEdge(v, v) {
			panic("adversary: churn core must contain all nodes and self-loops")
		}
	}
	return &Churn{core: core.Clone(), p: p, seed: seed}
}

// N implements rounds.Adversary.
func (c *Churn) N() int { return c.core.N() }

// Graph implements rounds.Adversary.
func (c *Churn) Graph(r int) *graph.Digraph {
	const mix = int64(0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF) // golden-ratio round mixer
	rng := rand.New(rand.NewSource(c.seed + int64(r)*mix))
	g := c.core.Clone()
	n := c.core.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && !g.HasEdge(u, v) && rng.Float64() < c.p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}
