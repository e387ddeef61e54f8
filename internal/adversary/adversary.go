// Package adversary provides concrete run generators for the round model.
// The paper quantifies over all runs admissible in a system (a
// communication predicate); an adversary here is one deterministic,
// seedable generator of round communication graphs. The package covers
// every construction the paper itself uses — the Figure 1 run, the
// Theorem 2 lower bound, the ♦Psrcs isolation argument — plus randomized
// families (crash, noise, churn, partitions, rooted skeletons) for
// statistical batteries.
package adversary

import (
	"fmt"
	"math/rand"

	"kset/internal/graph"
)

// Run is an eventually-constant graph sequence: rounds 1..len(prefix)
// replay the prefix, every later round returns the final stable graph. It
// implements rounds.Adversary and rounds.Stabilizer. All graphs must span
// the same universe and contain all nodes and self-loops.
type Run struct {
	prefix []*graph.Digraph
	stable *graph.Digraph
}

// NewRun builds a Run from a (possibly empty) prefix and the graph
// repeated forever afterwards. It validates the self-loop and
// all-nodes-present requirements of the model eagerly so that misbuilt
// adversaries fail at construction, not mid-run.
func NewRun(prefix []*graph.Digraph, stable *graph.Digraph) *Run {
	if stable == nil {
		panic("adversary: nil stable graph")
	}
	n := stable.N()
	validate := func(g *graph.Digraph, what string) {
		if g.N() != n {
			panic(fmt.Sprintf("adversary: %s universe %d, want %d", what, g.N(), n))
		}
		for v := 0; v < n; v++ {
			if !g.HasNode(v) || !g.HasEdge(v, v) {
				panic(fmt.Sprintf("adversary: %s missing node or self-loop p%d", what, v+1))
			}
		}
	}
	validate(stable, "stable graph")
	for i, g := range prefix {
		validate(g, fmt.Sprintf("prefix graph %d", i+1))
	}
	return &Run{prefix: prefix, stable: stable}
}

// Static returns a run whose communication graph is g in every round.
func Static(g *graph.Digraph) *Run { return NewRun(nil, g) }

// N implements rounds.Adversary.
func (a *Run) N() int { return a.stable.N() }

// Graph implements rounds.Adversary.
func (a *Run) Graph(r int) *graph.Digraph {
	if r < 1 {
		panic(fmt.Sprintf("adversary: round %d < 1", r))
	}
	if r-1 < len(a.prefix) {
		return a.prefix[r-1]
	}
	return a.stable
}

// StabilizationRound implements rounds.Stabilizer: from this round on the
// graph sequence is constant.
func (a *Run) StabilizationRound() int { return len(a.prefix) + 1 }

// StableSkeleton returns G^∩∞ of this run: the intersection of every
// round graph. Note this can be strictly smaller than the repeated stable
// graph (e.g. for isolation-prefix runs).
func (a *Run) StableSkeleton() *graph.Digraph {
	skel := a.stable.Clone()
	for _, g := range a.prefix {
		skel.IntersectWith(g)
	}
	return skel
}

// Base returns a copy of the graph repeated after the prefix.
func (a *Run) Base() *graph.Digraph { return a.stable.Clone() }

// PrefixLen returns the number of prefix rounds.
func (a *Run) PrefixLen() int { return len(a.prefix) }

// selfLoopGraph returns the n-process graph with only self-loops: total
// isolation (each process hears only itself).
func selfLoopGraph(n int) *graph.Digraph {
	g := graph.NewFullDigraph(n)
	g.AddSelfLoops()
	return g
}

// Isolation returns a run in which every process is isolated forever:
// admissible in Ptrue and the extreme witness that k-set agreement needs
// some synchrony (any algorithm decides n different values).
func Isolation(n int) *Run { return Static(selfLoopGraph(n)) }

// Complete returns the fully synchronous run: the complete graph forever.
func Complete(n int) *Run { return Static(graph.CompleteDigraph(n)) }

// Eventual wraps a base run with an isolation prefix of the given length:
// for the first `isolated` rounds every process hears only itself, then
// the base run's graphs follow. This realizes the paper's ♦Psrcs(k)
// argument (Section III): the predicate holds only eventually, and if the
// isolation prefix reaches n rounds, Algorithm 1's processes all decide
// their own values.
func Eventual(base *Run, isolated int) *Run {
	if isolated < 0 {
		panic("adversary: negative isolation prefix")
	}
	n := base.N()
	prefix := make([]*graph.Digraph, 0, isolated+base.PrefixLen())
	iso := selfLoopGraph(n)
	for i := 0; i < isolated; i++ {
		prefix = append(prefix, iso)
	}
	prefix = append(prefix, base.prefix...)
	return NewRun(prefix, base.stable)
}

// withNoise returns a run that behaves like base but with extra random
// edges added during the first `noisy` rounds: each absent ordered pair
// appears independently with probability p in each noisy round. The
// stable skeleton is unchanged (noise only adds edges, and only in a
// finite prefix), so every communication predicate of the base run is
// preserved while early approximation graphs see garbage — exactly the
// regime Figure 1's purge mechanism (line 24) exists for.
func withNoise(base *Run, noisy int, p float64, rng *rand.Rand) *Run {
	if noisy < 0 {
		panic("adversary: negative noise prefix")
	}
	n := base.N()
	prefix := make([]*graph.Digraph, 0, noisy)
	for r := 1; r <= noisy || r <= base.PrefixLen(); r++ {
		g := base.Graph(r).Clone()
		if r <= noisy {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v && !g.HasEdge(u, v) && rng.Float64() < p {
						g.AddEdge(u, v)
					}
				}
			}
		}
		prefix = append(prefix, g)
	}
	return NewRun(prefix, base.stable)
}

// RandomSources returns a run whose stable skeleton is a random graph
// with exactly `roots` root components (so Psrcs(k) holds for every
// k >= its MinK >= roots), preceded by `noisy` rounds of additive noise.
func RandomSources(n, roots, noisy int, p float64, rng *rand.Rand) *Run {
	skel := graph.RandomRootedSkeleton(n, roots, rng)
	return withNoise(Static(skel), noisy, p, rng)
}

// HubClusters returns a run whose stable skeleton is a hub-cluster
// graph: processes 0..hubs-1 are hubs forming a clique (every hub hears
// every hub), and the remaining n-hubs members are dealt round-robin
// into one group per hub; each member hears itself, its hub, and its
// ring-predecessor within the group. A noisy prefix (as in withNoise)
// is layered on top.
//
// The shape is built for large-n scaling sweeps (experiment E20): the
// skeleton has ~3n edges, exactly one root component (the hub clique),
// and MinK = hubs exactly — the in-neighborhoods {self, hub, pred} of
// members in different groups are disjoint, while any two processes of
// the same group share their hub and any hub shares a hub with
// everyone — so the per-trial MinK computation stays tractable and its
// expected value is known analytically. Hubs decide by connectivity
// (their pruned approximation is the hub clique); members adopt their
// hub's decision broadcast one round later.
func HubClusters(n, hubs, noisy int, p float64, rng *rand.Rand) *Run {
	if hubs < 1 || n < 2*hubs {
		panic(fmt.Sprintf("adversary: HubClusters needs 1 <= hubs <= n/2, got n=%d hubs=%d", n, hubs))
	}
	skel := graph.NewFullDigraph(n)
	skel.AddSelfLoops()
	for u := 0; u < hubs; u++ {
		for v := 0; v < hubs; v++ {
			skel.AddEdge(u, v)
		}
	}
	for m := hubs; m < n; m++ {
		h := (m - hubs) % hubs
		skel.AddEdge(h, m)
		pred := m - hubs // previous member of the same group, wrapping
		if pred < hubs {
			last := m
			for last+hubs < n {
				last += hubs
			}
			pred = last
		}
		skel.AddEdge(pred, m)
	}
	return withNoise(Static(skel), noisy, p, rng)
}

// RandomSingleSource returns a run whose stable skeleton contains a
// universal 2-source: one process s with a perpetual edge to every
// process. Then s ∈ PT(q) ∩ PT(q') for every pair, so Psrcs(1) holds
// (MinK = 1) and Algorithm 1 is guaranteed to reach consensus — the
// paper's "sufficiently well-behaved" runs of Section V. Random extra
// edges (density extra) and a noisy prefix are layered on top; neither
// can raise MinK above 1.
func RandomSingleSource(n, noisy int, extra, p float64, rng *rand.Rand) *Run {
	skel := graph.NewFullDigraph(n)
	skel.AddSelfLoops()
	s := rng.Intn(n)
	for v := 0; v < n; v++ {
		skel.AddEdge(s, v)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < extra {
				skel.AddEdge(u, v)
			}
		}
	}
	return withNoise(Static(skel), noisy, p, rng)
}
