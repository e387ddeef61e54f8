package predicate

import (
	"math/rand"
	"testing"

	"kset/internal/graph"
)

func loopy(n int, edges ...[2]int) *graph.Digraph {
	g := graph.NewFullDigraph(n)
	g.AddSelfLoops()
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// figure1Skeleton is the paper's Figure 1b stable skeleton, for which
// Psrcs(3) holds.
func figure1Skeleton() *graph.Digraph {
	return loopy(6,
		[2]int{0, 1}, [2]int{1, 0},
		[2]int{2, 3}, [2]int{3, 4}, [2]int{4, 2},
		[2]int{4, 5})
}

func TestPsrcBasic(t *testing.T) {
	// p5 -> p3 and p5 -> p6 in Figure 1b: p5 is a 2-source for {p3, p6}.
	skel := figure1Skeleton()
	if !Psrc(skel, 4, graph.NodeSetOf(2, 5)) {
		t.Fatal("p5 should be 2-source for {p3,p6}")
	}
	// p1 only reaches p1, p2: not a 2-source for {p3, p6}.
	if Psrc(skel, 0, graph.NodeSetOf(2, 5)) {
		t.Fatal("p1 should not be a 2-source for {p3,p6}")
	}
}

func TestPsrcSelfCounts(t *testing.T) {
	// The paper allows p = q: a process hearing itself plus one other.
	// p1 -> p2 with self-loops: p1 ∈ PT(p1) ∩ PT(p2).
	skel := loopy(2, [2]int{0, 1})
	if !Psrc(skel, 0, graph.NodeSetOf(0, 1)) {
		t.Fatal("self-loop 2-source not recognized")
	}
}

func TestPsrcRequiresTwoDistinct(t *testing.T) {
	skel := loopy(3) // only self-loops
	if Psrc(skel, 0, graph.NodeSetOf(0, 1, 2)) {
		t.Fatal("single receiver cannot make a 2-source")
	}
}

func TestFigure1SatisfiesPsrcs3Not2(t *testing.T) {
	skel := figure1Skeleton()
	if !Holds(skel, 3) {
		t.Fatal("Psrcs(3) should hold for Figure 1 (paper statement)")
	}
	if Holds(skel, 2) {
		t.Fatal("Psrcs(2) should fail: {p1,p3,p6} pairwise share no source")
	}
	if got := MinK(skel); got != 3 {
		t.Fatalf("MinK = %d, want 3", got)
	}
}

func TestHoldsEdgeCases(t *testing.T) {
	skel := loopy(3)
	if Holds(skel, 0) {
		t.Fatal("k=0 never holds")
	}
	if !Holds(skel, 3) {
		t.Fatal("k >= n holds vacuously")
	}
	// Only self-loops: every pair shares nothing; MinK = n.
	if got := MinK(skel); got != 3 {
		t.Fatalf("MinK of isolated = %d, want 3", got)
	}
}

func TestSingleSourceStar(t *testing.T) {
	// One process s heard by everyone: Psrcs(1) holds (consensus-grade).
	n := 5
	skel := loopy(n)
	for v := 0; v < n; v++ {
		skel.AddEdge(0, v)
	}
	if got := MinK(skel); got != 1 {
		t.Fatalf("MinK of star = %d, want 1", got)
	}
	if !Holds(skel, 1) {
		t.Fatal("Psrcs(1) should hold for a star")
	}
}

func TestSharesSourceGraphSymmetricNoSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 50; trial++ {
		skel := graph.RandomDigraph(7, 0.3, rng)
		h := SharesSourceGraph(skel)
		for u := 0; u < 7; u++ {
			if h.HasEdge(u, u) {
				t.Fatal("self-loop in shares graph")
			}
			for v := 0; v < 7; v++ {
				if h.HasEdge(u, v) != h.HasEdge(v, u) {
					t.Fatal("shares graph not symmetric")
				}
			}
		}
	}
}

func TestSharesSourceGraphEdges(t *testing.T) {
	skel := figure1Skeleton()
	h := SharesSourceGraph(skel)
	// p3 and p6 share p5.
	if !h.HasEdge(2, 5) {
		t.Fatal("p3~p6 missing")
	}
	// p1 and p6 share nothing.
	if h.HasEdge(0, 5) {
		t.Fatal("p1~p6 spurious")
	}
	// p1 and p2 share both p1 and p2.
	if !h.HasEdge(0, 1) {
		t.Fatal("p1~p2 missing")
	}
}

func TestHoldsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(6)
		skel := graph.RandomDigraph(n, rng.Float64()*0.5, rng)
		for k := 1; k <= n; k++ {
			want := HoldsBrute(skel, k)
			if got := Holds(skel, k); got != want {
				t.Fatalf("Holds(%d) = %v, brute = %v for %v", k, got, want, skel)
			}
		}
	}
}

func TestMinKIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		skel := graph.RandomDigraph(n, rng.Float64()*0.4, rng)
		k := MinK(skel)
		if !Holds(skel, k) {
			t.Fatalf("Psrcs(MinK=%d) does not hold", k)
		}
		if k > 1 && Holds(skel, k-1) {
			t.Fatalf("Psrcs(MinK-1=%d) holds, MinK not minimal", k-1)
		}
	}
}

func TestViolationWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5)
		skel := graph.RandomDigraph(n, rng.Float64()*0.4, rng)
		k := MinK(skel)
		if k > 1 {
			S, ok := Violation(skel, k-1)
			if !ok {
				t.Fatalf("no witness though Psrcs(%d) fails", k-1)
			}
			if S.Len() != k {
				t.Fatalf("witness size %d, want %d", S.Len(), k)
			}
			for p := 0; p < n; p++ {
				if Psrc(skel, p, S) {
					t.Fatalf("witness %v has the 2-source p%d", S, p+1)
				}
			}
		}
		if _, ok := Violation(skel, k); ok {
			t.Fatalf("violation witness for holding predicate k=%d", k)
		}
	}
}

func TestMaxIndependentSetKnownGraphs(t *testing.T) {
	// Triangle: α = 1.
	tri := graph.NewFullDigraph(3)
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if u != v {
				tri.AddEdge(u, v)
			}
		}
	}
	if got := IndependenceNumber(tri); got != 1 {
		t.Fatalf("α(K3) = %d, want 1", got)
	}
	// 5-cycle: α = 2.
	c5 := graph.NewFullDigraph(5)
	for i := 0; i < 5; i++ {
		c5.AddEdge(i, (i+1)%5)
		c5.AddEdge((i+1)%5, i)
	}
	if got := IndependenceNumber(c5); got != 2 {
		t.Fatalf("α(C5) = %d, want 2", got)
	}
	// Empty graph on 4 nodes: α = 4.
	empty := graph.NewFullDigraph(4)
	if got := IndependenceNumber(empty); got != 4 {
		t.Fatalf("α(empty) = %d, want 4", got)
	}
}

func TestMaxIndependentSetAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		h := graph.NewFullDigraph(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					h.AddEdge(u, v)
					h.AddEdge(v, u)
				}
			}
		}
		want := bruteAlpha(h)
		got := MaxIndependentSet(h)
		if got.Len() != want {
			t.Fatalf("α = %d, brute = %d", got.Len(), want)
		}
		// Verify the returned set is independent.
		got.ForEach(func(u int) {
			got.ForEach(func(v int) {
				if u != v && h.HasEdge(u, v) {
					t.Fatalf("returned set not independent: %v", got)
				}
			})
		})
	}
}

func bruteAlpha(h *graph.Digraph) int {
	n := h.N()
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		size := 0
		for u := 0; u < n && ok; u++ {
			if mask&(1<<u) == 0 {
				continue
			}
			size++
			for v := u + 1; v < n && ok; v++ {
				if mask&(1<<v) != 0 && h.HasEdge(u, v) {
					ok = false
				}
			}
		}
		if ok && size > best {
			best = size
		}
	}
	return best
}

func TestRootComponentBound(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(8)
		roots := 1 + rng.Intn(n)
		skel := graph.RandomRootedSkeleton(n, roots, rng)
		rc, minK, ok := RootComponentBound(skel)
		if !ok {
			t.Fatalf("bound violated: roots=%d minK=%d for %v", rc, minK, skel)
		}
		if rc != roots {
			t.Fatalf("constructed %d roots, measured %d", roots, rc)
		}
	}
}

func TestRootComponentBoundOnRandomGraphs(t *testing.T) {
	// Theorem 1's combinatorial core, checked on arbitrary graphs.
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		skel := graph.RandomDigraph(n, rng.Float64()*0.5, rng)
		if _, _, ok := RootComponentBound(skel); !ok {
			t.Fatalf("roots > MinK for %v", skel)
		}
	}
}

func TestTheorem2ConstructionSkeleton(t *testing.T) {
	// The lower-bound run of Theorem 2: L = k-1 processes hear only
	// themselves; everyone else hears itself and s. The paper argues
	// Psrcs(k) holds and (k-1)-set agreement is impossible.
	for n := 3; n <= 8; n++ {
		for k := 2; k < n; k++ {
			skel := loopy(n)
			s := k - 1 // process index of the 2-source s
			for v := k - 1; v < n; v++ {
				skel.AddEdge(s, v)
			}
			if !Holds(skel, k) {
				t.Fatalf("Theorem 2 construction violates Psrcs(%d) (n=%d)", k, n)
			}
			if got := MinK(skel); got != k {
				t.Fatalf("MinK = %d, want exactly %d (n=%d)", got, k, n)
			}
		}
	}
}
