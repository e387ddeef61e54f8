package predicate

import (
	"fmt"
	"math/rand"
	"testing"

	"kset/internal/graph"
)

// Differential battery for the width-generic MaxIndependentSet: the
// multi-word branch-and-bound must return the bit-identical set the
// single-word path returns on every graph both can represent, and must
// stay exact (size matches subset enumeration, result independent) at
// the word-seam widths only it can handle.

// randomSymmetric builds a random undirected graph (symmetric digraph,
// no self-loops) with edge density p, nodes present with probability
// 0.9 — matching what SharesSourceGraph feeds the solver.
func randomSymmetric(rng *rand.Rand, n int, p float64) *graph.Digraph {
	h := graph.NewDigraph(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.9 {
			h.AddNode(v)
		}
	}
	nodes := h.Nodes()
	for u := 0; u < n; u++ {
		if !nodes.Has(u) {
			continue
		}
		for v := u + 1; v < n; v++ {
			if nodes.Has(v) && rng.Float64() < p {
				h.AddEdge(u, v)
				h.AddEdge(v, u)
			}
		}
	}
	return h
}

// assertIndependent fails unless set is independent in h.
func assertIndependent(t *testing.T, h *graph.Digraph, set graph.NodeSet) {
	t.Helper()
	set.ForEach(func(u int) {
		set.ForEach(func(v int) {
			if u != v && h.HasEdge(u, v) {
				t.Fatalf("set %v not independent: edge %d-%d", set, u, v)
			}
		})
	})
}

// bruteIndependenceNumber enumerates all subsets of the ≤20 universe
// nodes and returns the maximum independent-set size.
func bruteIndependenceNumber(h *graph.Digraph) int {
	n := h.N()
	best := 0
	for mask := uint32(0); mask < 1<<n; mask++ {
		sz := 0
		ok := true
		for u := 0; u < n && ok; u++ {
			if mask&(1<<u) == 0 {
				continue
			}
			sz++
			for v := u + 1; v < n; v++ {
				if mask&(1<<v) != 0 && h.HasEdge(u, v) {
					ok = false
					break
				}
			}
		}
		if ok && sz > best {
			best = sz
		}
	}
	return best
}

// TestMISMultiMatchesSingleWordBitIdentical pins the claim the solver's
// doc comment makes: the two paths share a branch order, so on any
// graph with n ≤ 64 the multi-word solver returns the byte-identical
// set — not just the same size — as the single-word fast path.
func TestMISMultiMatchesSingleWordBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7500))
	for _, n := range []int{1, 2, 3, 8, 17, 33, 63, 64} {
		// Sparse wide graphs make exact MIS exponential (the
		// independence number, hence the search depth, grows as
		// density falls), so density scales up with n; the dense end
		// matches the shares-a-source graphs MinK actually solves.
		densities := []float64{0.05, 0.2, 0.5, 0.8}
		if n > 32 {
			densities = []float64{0.4, 0.6, 0.8}
		}
		for _, p := range densities {
			for trial := 0; trial < 10; trial++ {
				h := randomSymmetric(rng, n, p)
				want := maxIndependentSet64(h)
				got := maxIndependentSetMulti(h)
				if !got.Equal(want) {
					t.Fatalf("n=%d p=%.2f trial %d: multi %v != single-word %v\n%s", n, p, trial, got, want, h)
				}
				assertIndependent(t, h, got)
			}
		}
	}
}

// TestMISMultiExactAtBoundaryWidths checks the multi-word solver alone
// at word-seam widths, against greedy lower bounds and independence; at
// these widths exactness is cross-checked by embedding a small graph
// whose independence number brute force knows.
func TestMISMultiExactAtBoundaryWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(7501))
	for _, n := range []int{65, 127, 128, 129, 192} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				// Dense only: sparse exact MIS is exponential at
				// these widths (see the density note above).
				h := randomSymmetric(rng, n, 0.8)
				set := MaxIndependentSet(h)
				assertIndependent(t, h, set)
				// Exactness witness: α ≥ greedy maximal set size.
				greedy := greedyIndependent(h)
				if set.Len() < greedy.Len() {
					t.Fatalf("n=%d trial %d: MIS %d below greedy %d", n, trial, set.Len(), greedy.Len())
				}
			}
		})
	}
}

// TestMISMultiEmbeddedBruteForce embeds small graphs (exact α known by
// subset enumeration) into seam-width universes with all other nodes
// absent: absent nodes are trivially independent, so the expected α is
// brute + (n - small). This gives the multi-word solver a brute-force
// exactness check at widths the single-word path cannot reach.
func TestMISMultiEmbeddedBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7502))
	for _, n := range []int{65, 127, 128, 129, 192} {
		for trial := 0; trial < 6; trial++ {
			small := 4 + rng.Intn(9)
			h := graph.NewDigraph(n)
			core := graph.NewDigraph(small)
			for v := 0; v < small; v++ {
				h.AddNode(v)
				core.AddNode(v)
			}
			for u := 0; u < small; u++ {
				for v := u + 1; v < small; v++ {
					if rng.Float64() < 0.4 {
						h.AddEdge(u, v)
						h.AddEdge(v, u)
						core.AddEdge(u, v)
						core.AddEdge(v, u)
					}
				}
			}
			// Absent high nodes count toward the independent set (the
			// solver's contract: all universe nodes participate).
			want := bruteIndependenceNumber(core) + (n - small)
			got := MaxIndependentSet(h)
			if got.Len() != want {
				t.Fatalf("n=%d trial %d: α = %d, brute %d (core %s)", n, trial, got.Len(), want, core)
			}
			assertIndependent(t, h, got)
		}
	}
}

// TestMaxIndependentSet64RefusesWideUniverse pins the loud-failure
// contract of the fast path: calling it past one word must panic
// instead of silently truncating the adjacency to 64 nodes.
func TestMaxIndependentSet64RefusesWideUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("maxIndependentSet64 accepted a 65-node universe")
		}
	}()
	maxIndependentSet64(graph.NewFullDigraph(65))
}

// TestMinKWideSkeleton runs the full MinK pipeline (shares-a-source
// graph + MIS) on a >64-node skeleton: a disjoint union of c cliques
// with all self-loops has exactly c pairwise source-disjoint groups, so
// MinK must be c at any width.
func TestMinKWideSkeleton(t *testing.T) {
	// The popcount bound prunes block-structured graphs only near the
	// leaves, so the search costs ~(n/c)^(c-1) — keep c small.
	for _, n := range []int{65, 128, 130, 192} {
		for _, c := range []int{1, 2, 5} {
			if n%c != 0 {
				continue
			}
			size := n / c
			skel := graph.NewFullDigraph(n)
			for b := 0; b < c; b++ {
				for u := b * size; u < (b+1)*size; u++ {
					for v := b * size; v < (b+1)*size; v++ {
						skel.AddEdge(u, v)
					}
				}
			}
			if got := MinK(skel); got != c {
				t.Fatalf("n=%d cliques=%d: MinK = %d, want %d", n, c, got, c)
			}
		}
	}
}
