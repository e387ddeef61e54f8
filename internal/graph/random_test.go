package graph

import (
	"math/rand"
	"testing"
)

func TestRandomDigraphSelfLoopsAlways(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, p := range []float64{0, 0.5, 1} {
		g := RandomDigraph(6, p, rng)
		for v := 0; v < 6; v++ {
			if !g.HasEdge(v, v) {
				t.Fatalf("p=%v: missing self-loop %d", p, v)
			}
		}
	}
}

func TestRandomDigraphDensityExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	sparse := RandomDigraph(8, 0, rng)
	if sparse.NumEdges() != 8 {
		t.Fatalf("p=0 should give self-loops only, got %d edges", sparse.NumEdges())
	}
	dense := RandomDigraph(8, 1, rng)
	if dense.NumEdges() != 64 {
		t.Fatalf("p=1 should give the complete graph, got %d edges", dense.NumEdges())
	}
}

func TestRandomCycleComponentStronglyConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 100; trial++ {
		n := 8
		g := NewFullDigraph(n)
		g.AddSelfLoops()
		size := 1 + rng.Intn(n)
		nodes := rng.Perm(n)[:size]
		randomCycleComponent(g, nodes, rng.Float64()*0.5, rng)
		set := NodeSetOf(nodes...)
		sub := g.InducedSubgraph(set)
		if !sub.stronglyConnected(new(ReachScratch)) {
			t.Fatalf("component over %v not strongly connected: %v", nodes, sub)
		}
	}
}

func TestRandomCycleComponentEmptyNoop(t *testing.T) {
	g := NewFullDigraph(3)
	g.AddSelfLoops()
	before := g.NumEdges()
	randomCycleComponent(g, nil, 0.5, rand.New(rand.NewSource(1)))
	if g.NumEdges() != before {
		t.Fatal("empty component changed the graph")
	}
}

func TestRandomRootedSkeletonSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := RandomRootedSkeleton(10, 3, rng)
	for v := 0; v < 10; v++ {
		if !g.HasEdge(v, v) {
			t.Fatalf("missing self-loop %d", v)
		}
	}
}

func TestRandomRootedSkeletonPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, args := range [][2]int{{5, 0}, {5, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RandomRootedSkeleton(%d,%d) should panic", args[0], args[1])
				}
			}()
			RandomRootedSkeleton(args[0], args[1], rng)
		}()
	}
}

func TestRandomRootedSkeletonDownstreamReachable(t *testing.T) {
	// Every non-root node must be reachable from a root component and
	// must not reach back into any root component.
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(10)
		roots := 1 + rng.Intn(n)
		g := RandomRootedSkeleton(n, roots, rng)
		rootSets := RootComponents(g)
		inRoot := NewNodeSet(n)
		for _, rs := range rootSets {
			inRoot.UnionWith(rs)
		}
		for v := 0; v < n; v++ {
			if inRoot.Has(v) {
				continue
			}
			back := reachable(g, v)
			if back.Intersects(inRoot) {
				t.Fatalf("downstream p%d reaches back into a root component", v+1)
			}
		}
	}
}
