package predicate

import (
	"math/rand"
	"testing"

	"kset/internal/graph"
)

func TestMinKBoundsSandwichExact(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(10)
		skel := graph.RandomDigraph(n, rng.Float64()*0.5, rng)
		exact := MinK(skel)
		lo, hi := MinKBounds(skel)
		if lo > exact || exact > hi {
			t.Fatalf("bounds [%d, %d] do not sandwich exact %d for %v",
				lo, hi, exact, skel)
		}
	}
}

func TestMinKBoundsTightOnStructuredSkeletons(t *testing.T) {
	// Star: exact MinK = 1 — bounds must pin it.
	star := loopy(6)
	for v := 0; v < 6; v++ {
		star.AddEdge(0, v)
	}
	if lo, hi := MinKBounds(star); lo != 1 || hi != 1 {
		t.Fatalf("star bounds [%d, %d], want [1, 1]", lo, hi)
	}
	// Isolation: shares graph empty, exact MinK = n.
	iso := loopy(5)
	if lo, hi := MinKBounds(iso); lo != 5 || hi != 5 {
		t.Fatalf("isolation bounds [%d, %d], want [5, 5]", lo, hi)
	}
	// Figure 1: exact MinK = 3.
	fig := figure1Skeleton()
	lo, hi := MinKBounds(fig)
	if lo > 3 || hi < 3 {
		t.Fatalf("figure bounds [%d, %d] exclude 3", lo, hi)
	}
}

func TestMinKBoundsScaleToLargeN(t *testing.T) {
	// The point of the bounds: n = 96 would be hopeless for exact MinK
	// on adversarial graphs; the bounds must finish instantly and still
	// sandwich the structural lower bound (#root components).
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 10; trial++ {
		n := 96
		roots := 1 + rng.Intn(8)
		skel := graph.RandomRootedSkeleton(n, roots, rng)
		lo, hi := MinKBounds(skel)
		if lo < roots {
			t.Fatalf("lower bound %d below #roots %d", lo, roots)
		}
		if hi < lo {
			t.Fatalf("upper %d below lower %d", hi, lo)
		}
	}
}

func TestGreedyIndependentIsIndependentAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(10)
		skel := graph.RandomDigraph(n, 0.3, rng)
		h := SharesSourceGraph(skel)
		is := greedyIndependent(h)
		is.ForEach(func(u int) {
			is.ForEach(func(v int) {
				if u != v && h.HasEdge(u, v) {
					t.Fatalf("greedy set %v not independent", is)
				}
			})
		})
		// Maximality: every vertex outside has a neighbor inside.
		for v := 0; v < n; v++ {
			if is.Has(v) {
				continue
			}
			if !h.OutNeighbors(v).Intersects(is) {
				t.Fatalf("greedy set %v not maximal: %d addable", is, v)
			}
		}
	}
}
