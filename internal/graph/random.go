package graph

import "math/rand"

// RandomDigraph returns a graph on all n nodes where every ordered pair
// (u, v), u != v, carries an edge independently with probability p.
// All self-loops are always present (round graphs contain them).
func RandomDigraph(n int, p float64, rng *rand.Rand) *Digraph {
	g := NewFullDigraph(n)
	g.AddSelfLoops()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// randomCycleComponent wires the given nodes into a random strongly
// connected component of g: a random Hamiltonian cycle over the nodes plus
// extra random internal chords with probability chord.
func randomCycleComponent(g *Digraph, nodes []int, chord float64, rng *rand.Rand) {
	if len(nodes) == 0 {
		return
	}
	perm := rng.Perm(len(nodes))
	for i := range perm {
		u := nodes[perm[i]]
		v := nodes[perm[(i+1)%len(perm)]]
		if len(nodes) == 1 {
			v = u
		}
		g.AddEdge(u, v)
	}
	for _, u := range nodes {
		for _, v := range nodes {
			if u != v && rng.Float64() < chord {
				g.AddEdge(u, v)
			}
		}
	}
}

// RandomRootedSkeleton builds a random stable-skeleton-shaped graph on n
// nodes with exactly the requested number of root components: roots
// disjoint strongly connected components with no incoming edges, and every
// remaining node wired strictly downstream (reachable from at least one
// root component, never feeding back into any root). All self-loops are
// present. It panics unless 1 <= roots <= n.
func RandomRootedSkeleton(n, roots int, rng *rand.Rand) *Digraph {
	if roots < 1 || roots > n {
		panic("graph: RandomRootedSkeleton requires 1 <= roots <= n")
	}
	g := NewFullDigraph(n)
	g.AddSelfLoops()

	perm := rng.Perm(n)
	// Split the first chunk of the permutation into `roots` nonempty
	// component seats, then leave the rest downstream.
	downstreamStart := roots + rng.Intn(n-roots+1)
	members := perm[:downstreamStart]
	downstream := perm[downstreamStart:]

	// Assign members to components: first `roots` one each, rest randomly.
	comps := make([][]int, roots)
	for i := 0; i < roots; i++ {
		comps[i] = []int{members[i]}
	}
	for _, v := range members[roots:] {
		c := rng.Intn(roots)
		comps[c] = append(comps[c], v)
	}
	for _, comp := range comps {
		randomCycleComponent(g, comp, 0.3, rng)
	}

	// Wire downstream nodes: node i gets 1-3 in-edges from earlier layers
	// (roots or earlier downstream nodes), guaranteeing no back-edges into
	// the root components and acyclic inter-component structure.
	upstream := append([]int(nil), members...)
	for _, v := range downstream {
		deg := 1 + rng.Intn(3)
		for d := 0; d < deg; d++ {
			u := upstream[rng.Intn(len(upstream))]
			g.AddEdge(u, v)
		}
		upstream = append(upstream, v)
	}
	return g
}
