package predicate

import "kset/internal/graph"

// MinK is exact but exponential in the worst case (it computes an
// independence number). For skeletons beyond a few dozen processes the
// experiment harness needs cheap two-sided bounds:
//
//	minKLower(skel) <= MinK(skel) <= minKUpper(skel)
//
// The lower bound is a maximal independent set found greedily (any
// independent set witnesses that Psrcs fails below its size); the upper
// bound is a greedy clique cover (every clique of the shares-a-source
// graph contributes at most one member to any independent set). Both are
// deterministic.

// minKLower returns a lower bound on MinK: the size of a greedily built
// maximal independent set of the shares-a-source graph (minimum-degree
// heuristic).
func minKLower(skel *graph.Digraph) int {
	return greedyIndependent(sharesSourceGraph(skel)).Len()
}

// minKUpper returns an upper bound on MinK: the number of cliques in a
// greedy clique cover of the shares-a-source graph.
func minKUpper(skel *graph.Digraph) int {
	h := sharesSourceGraph(skel)
	n := h.N()
	assigned := graph.NewNodeSet(n)
	cliques := 0
	for v := 0; v < n; v++ {
		if assigned.Has(v) {
			continue
		}
		// Grow a clique starting from v: candidates are unassigned
		// neighbors adjacent to every member so far.
		clique := graph.NodeSetOf(v)
		assigned.Add(v)
		cand := h.OutNeighbors(v)
		cand.SubtractWith(assigned)
		for {
			pick := -1
			cand.ForEach(func(w int) {
				if pick == -1 {
					pick = w
				}
			})
			if pick == -1 {
				break
			}
			clique.Add(pick)
			assigned.Add(pick)
			cand.Remove(pick)
			cand.IntersectWith(h.OutNeighbors(pick))
			cand.SubtractWith(assigned)
		}
		cliques++
	}
	return cliques
}

// greedyIndependent builds a maximal independent set by repeatedly picking
// the unremoved vertex of minimum remaining degree.
func greedyIndependent(h *graph.Digraph) graph.NodeSet {
	n := h.N()
	removed := graph.NewNodeSet(n)
	out := graph.NewNodeSet(n)
	for {
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if removed.Has(v) {
				continue
			}
			deg := 0
			h.OutNeighbors(v).ForEach(func(w int) {
				if !removed.Has(w) && w != v {
					deg++
				}
			})
			if deg < bestDeg {
				best, bestDeg = v, deg
			}
		}
		if best == -1 {
			return out
		}
		out.Add(best)
		removed.Add(best)
		h.OutNeighbors(best).ForEach(func(w int) { removed.Add(w) })
	}
}

// MinKBounds returns (lower, upper) bounds on MinK computed in polynomial
// time. lower == upper pins MinK exactly without the exponential search.
func MinKBounds(skel *graph.Digraph) (lower, upper int) {
	return minKLower(skel), minKUpper(skel)
}
