package adversary

import (
	"fmt"
	"math/rand"

	"kset/internal/graph"
)

// PartitionMerge is a partition-driven dynamic-network adversary: the n
// processes start split into c disjoint cliques (a seeded balanced
// partition), and the components re-merge pairwise on a fixed schedule —
// every `every` rounds each surviving component merges with its sibling,
// halving the component count until the graph is one clique. Because
// edges are only ever added, the stable skeleton G^∩∞ is exactly the
// round-1 graph: c disjoint strongly connected components, hence c root
// components and MinK = c. The run therefore satisfies Psrcs(k) exactly
// for k >= c, which makes PartitionMerge the natural stress test for
// Theorem 1's bound (at most k = c decision values, experiment E14) and
// a k-set-agreement cousin of the paper's Theorem 2 construction: no
// algorithm can decide fewer than c values before the partitions have
// exchanged anything.
//
// Graph(r) is deterministic in (seed, r); the seed only shapes the
// initial partition, the merge schedule itself is deterministic.
type PartitionMerge struct {
	n, c  int
	every int
	// member maps node -> initial group id 0..c-1; groups are balanced
	// over a seeded permutation.
	member []int
	// stages is ceil(log2 c): the number of pairwise merge waves until a
	// single component remains.
	stages int
}

// NewPartitionMerge returns a partition adversary on n processes split
// into c groups, with one pairwise merge wave every `every` rounds (the
// first wave happens at round every+1).
func NewPartitionMerge(n, c, every int, seed int64) *PartitionMerge {
	if c < 1 || c > n {
		panic(fmt.Sprintf("adversary: PartitionMerge c=%d out of [1,%d]", c, n))
	}
	if every < 1 {
		panic(fmt.Sprintf("adversary: PartitionMerge every=%d, need >= 1", every))
	}
	rng := rand.New(rand.NewSource(MixSeed(seed, 0)))
	member := make([]int, n)
	for i, v := range rng.Perm(n) {
		member[v] = i % c
	}
	stages := 0
	for 1<<stages < c {
		stages++
	}
	return &PartitionMerge{n: n, c: c, every: every, member: member, stages: stages}
}

// N implements rounds.Adversary.
func (a *PartitionMerge) N() int { return a.n }

// stage returns how many merge waves have happened by round r.
func (a *PartitionMerge) stage(r int) int {
	if r < 1 {
		panic(fmt.Sprintf("adversary: round %d < 1", r))
	}
	s := (r - 1) / a.every
	if s > a.stages {
		s = a.stages
	}
	return s
}

// component returns the component id of node v at merge stage s: initial
// groups g and g' have merged exactly when g >> s == g' >> s.
func (a *PartitionMerge) component(v, s int) int { return a.member[v] >> s }

// Graph implements rounds.Adversary: a disjoint union of cliques, one
// per component of the current merge stage.
func (a *PartitionMerge) Graph(r int) *graph.Digraph {
	s := a.stage(r)
	g := graph.NewFullDigraph(a.n)
	g.AddSelfLoops()
	for u := 0; u < a.n; u++ {
		cu := a.component(u, s)
		for v := 0; v < a.n; v++ {
			if u != v && cu == a.component(v, s) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// StabilizationRound implements rounds.Stabilizer: the round of the final
// merge wave, after which the graph is a single clique forever.
func (a *PartitionMerge) StabilizationRound() int { return a.stages*a.every + 1 }

// StableSkeleton returns G^∩∞: merging only ever adds edges, so the
// intersection of all rounds is the round-1 graph — c disjoint cliques,
// c root components, MinK = c.
func (a *PartitionMerge) StableSkeleton() *graph.Digraph { return a.Graph(1) }
