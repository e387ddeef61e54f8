// Package predicate implements the paper's communication predicates over
// stable skeletons, most importantly Psrcs(k) (Section III): in every set
// S of k+1 processes there are two distinct processes q, q' that receive
// timely messages from a common 2-source p, in every round.
//
// Because PT(q) is exactly the in-neighborhood of q in the stable
// skeleton G^∩∞, Psrcs(k) is a property of that one graph. The package
// also provides the structural quantities the paper's theorems connect:
//
//	#root components of G^∩∞  ≤  MinK(G^∩∞)  ≤  k   for any k with Psrcs(k)
//
// where MinK is the smallest k for which Psrcs(k) holds. MinK equals the
// independence number of the "shares-a-source" graph (two processes are
// adjacent iff their timely neighborhoods intersect), computed exactly.
package predicate

import (
	"fmt"
	"math/bits"

	"kset/internal/graph"
)

// Psrc reports whether p is a 2-source for the set S under the given
// stable skeleton: ∃ q, q' ∈ S, q ≠ q', with p ∈ PT(q) ∩ PT(q')
// (paper eq. (8), first line). PT(q) is the in-neighborhood of q, so this
// checks that p has edges to two distinct members of S. p may itself be
// in S (the paper allows p = q via self-loops).
func Psrc(skel *graph.Digraph, p int, S graph.NodeSet) bool {
	if !skel.HasNode(p) {
		return false
	}
	timelyReceivers := skel.OutNeighbors(p)
	timelyReceivers.IntersectWith(S)
	return timelyReceivers.Len() >= 2
}

// SharesSourceGraph builds the undirected "shares-a-source" graph over
// all n processes: q and q' (q ≠ q') are adjacent iff PT(q) ∩ PT(q') ≠ ∅.
// It is represented as a symmetric digraph without self-loops.
func SharesSourceGraph(skel *graph.Digraph) *graph.Digraph {
	n := skel.N()
	h := graph.NewFullDigraph(n)
	for q := 0; q < n; q++ {
		for qq := q + 1; qq < n; qq++ {
			if skel.HasCommonInNeighbor(q, qq) {
				h.AddEdge(q, qq)
				h.AddEdge(qq, q)
			}
		}
	}
	return h
}

// Holds reports whether Psrcs(k) holds for the stable skeleton: every
// (k+1)-subset of processes contains two distinct members with a common
// source (paper eq. (8)). Equivalently, the shares-a-source graph has no
// independent set of size k+1.
func Holds(skel *graph.Digraph, k int) bool {
	if k < 1 {
		return false
	}
	if k >= skel.N() {
		// Sets of size k+1 > n do not exist; the universal
		// quantification is vacuously true.
		return true
	}
	return MinK(skel) <= k
}

// MinK returns the smallest k for which Psrcs(k) holds: the independence
// number α of the shares-a-source graph. A skeleton with all self-loops
// always has α >= 1, and Psrcs(k) holds exactly for all k >= MinK
// (violating sets of size α+1 cannot exist, and an independent set of
// size α is a violating set for k = α-1).
func MinK(skel *graph.Digraph) int {
	return IndependenceNumber(SharesSourceGraph(skel))
}

// Violation returns a set S of k+1 processes with no 2-source, i.e. a
// witness that Psrcs(k) fails, or ok=false if Psrcs(k) holds.
func Violation(skel *graph.Digraph, k int) (S graph.NodeSet, ok bool) {
	if k >= skel.N() || k < 0 {
		return graph.NodeSet{}, false
	}
	shares := SharesSourceGraph(skel)
	is := MaxIndependentSet(shares)
	if is.Len() >= k+1 {
		// Any (k+1)-subset of a maximum independent set violates.
		out := graph.NewNodeSet(skel.N())
		count := 0
		is.ForEach(func(v int) {
			if count < k+1 {
				out.Add(v)
				count++
			}
		})
		return out, true
	}
	return graph.NodeSet{}, false
}

// HoldsBrute checks Psrcs(k) by enumerating every (k+1)-subset; it is the
// oracle the test suite uses to validate Holds and is exponential in n.
func HoldsBrute(skel *graph.Digraph, k int) bool {
	n := skel.N()
	if k < 1 {
		return false
	}
	if k >= n {
		return true
	}
	subset := make([]int, 0, k+1)
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(subset) == k+1 {
			S := graph.NodeSetOf(subset...)
			found := false
			for p := 0; p < n && !found; p++ {
				found = Psrc(skel, p, S)
			}
			return found
		}
		for v := start; v < n; v++ {
			subset = append(subset, v)
			ok := rec(v + 1)
			subset = subset[:len(subset)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// MaxIndependentSet computes a maximum independent set of an undirected
// graph (given as a symmetric digraph) exactly, by branch and bound. All
// n universe nodes participate, present or not (absent nodes have no
// edges and are trivially independent). Exponential worst case; fast in
// practice on the dense shares-a-source graphs MinK feeds it.
//
// For n ≤ 64 the search runs on single-word bitsets; beyond one word it
// runs on a flat multi-word matrix with depth-indexed candidate rows, so
// neither path allocates per branch node. The branch order (always split
// on the smallest candidate, include-branch first) is identical in both,
// so they return bit-identical sets on any graph both can represent
// (pinned by the differential tests).
func MaxIndependentSet(h *graph.Digraph) graph.NodeSet {
	if h.N() <= 64 {
		return maxIndependentSet64(h)
	}
	return maxIndependentSetMulti(h)
}

// maxIndependentSetMulti is the width-generic branch-and-bound. All
// traversal state lives in three flat allocations made once per call: a
// row-major adjacency bit matrix, a (n+1)×words stack of candidate rows
// indexed by recursion depth, and the cur/best sets — no per-branch
// allocation, no NodeSet clones.
func maxIndependentSetMulti(h *graph.Digraph) graph.NodeSet {
	n := h.N()
	words := (n + 63) / 64
	adj := make([]uint64, n*words)
	for v := 0; v < n; v++ {
		if !h.HasNode(v) {
			continue
		}
		row := adj[v*words : (v+1)*words]
		h.ForEachOut(v, func(u int) { row[u/64] |= 1 << (u % 64) })
		row[v/64] &^= 1 << (v % 64) // ignore self-loops
	}
	cand := make([]uint64, (n+1)*words)
	curBest := make([]uint64, 2*words)
	cur, best := curBest[:words], curBest[words:]
	bestLen, curLen := 0, 0
	full := cand[:words]
	for i := range full {
		full[i] = ^uint64(0)
	}
	if n%64 != 0 {
		full[words-1] = (uint64(1) << (n % 64)) - 1
	}
	var rec func(d int)
	rec = func(d int) {
		row := cand[d*words : (d+1)*words]
		for {
			pc := 0
			for _, w := range row {
				pc += bits.OnesCount64(w)
			}
			if curLen+pc <= bestLen {
				return // bound: cannot beat the incumbent
			}
			if pc == 0 {
				copy(best, cur)
				bestLen = curLen
				return
			}
			v := 0
			for i, w := range row {
				if w != 0 {
					v = i*64 + bits.TrailingZeros64(w)
					break
				}
			}
			vi, vb := v/64, uint64(1)<<(v%64)
			// Branch 1: v in the set — drop v and its neighbors.
			next := cand[(d+1)*words : (d+2)*words]
			arow := adj[v*words : (v+1)*words]
			for i := range row {
				next[i] = row[i] &^ arow[i]
			}
			next[vi] &^= vb
			cur[vi] |= vb
			curLen++
			rec(d + 1)
			cur[vi] &^= vb
			curLen--
			// Branch 2: v not in the set — clear v and loop (the loop
			// iteration is the recursive call of the single-word path).
			row[vi] &^= vb
		}
	}
	rec(0)
	out := graph.NewNodeSet(n)
	for i, w := range best {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			out.Add(i*64 + b)
		}
	}
	return out
}

// maxIndependentSet64 is the single-word branch-and-bound used for
// universes of at most 64 nodes — the hot path of MinK, which sim.Execute
// runs once per simulation. It refuses wider universes loudly: a silent
// call would truncate the adjacency to the first word.
func maxIndependentSet64(h *graph.Digraph) graph.NodeSet {
	n := h.N()
	if n > 64 {
		panic(fmt.Sprintf("predicate: maxIndependentSet64 on universe %d > 64", n))
	}
	var adj [64]uint64
	for v := 0; v < n; v++ {
		if !h.HasNode(v) {
			continue
		}
		w := uint64(0)
		h.ForEachOut(v, func(u int) { w |= 1 << u })
		adj[v] = w &^ (1 << v) // ignore self-loops
	}
	var full uint64
	if n == 64 {
		full = ^uint64(0)
	} else {
		full = (1 << n) - 1
	}
	var best, cur uint64
	bestLen, curLen := 0, 0
	var rec func(cand uint64)
	rec = func(cand uint64) {
		if curLen+bits.OnesCount64(cand) <= bestLen {
			return // bound: cannot beat the incumbent
		}
		if cand == 0 {
			best, bestLen = cur, curLen
			return
		}
		v := bits.TrailingZeros64(cand)
		bit := uint64(1) << v
		// Branch 1: v in the set — drop v and its neighbors.
		cur |= bit
		curLen++
		rec(cand &^ bit &^ adj[v])
		cur &^= bit
		curLen--
		// Branch 2: v not in the set.
		rec(cand &^ bit)
	}
	rec(full)
	out := graph.NewNodeSet(n)
	for w := best; w != 0; {
		v := bits.TrailingZeros64(w)
		w &^= 1 << v
		out.Add(v)
	}
	return out
}

// IndependenceNumber returns the size of a maximum independent set of the
// undirected graph h.
func IndependenceNumber(h *graph.Digraph) int {
	return MaxIndependentSet(h).Len()
}

// RootComponentBound re-checks the inequality chain used by Theorem 1 on
// a concrete skeleton: it returns (#root components, MinK) and whether
// #rootcomps ≤ MinK. Distinct root components never share a source (all
// in-edges of a root component member stay inside the component), so one
// process per root component forms an independent set of the
// shares-a-source graph.
func RootComponentBound(skel *graph.Digraph) (rootComps, minK int, ok bool) {
	rootComps = len(graph.RootComponents(skel))
	minK = MinK(skel)
	return rootComps, minK, rootComps <= minK
}
