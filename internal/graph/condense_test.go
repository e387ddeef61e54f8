package graph

import (
	"math/rand"
	"testing"
)

func TestCondenseSimple(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // comp A
	g.AddEdge(2, 3)
	g.AddEdge(3, 2) // comp B
	g.AddEdge(1, 2) // A -> B
	g.AddNode(4)    // comp C isolated
	c := Condense(g)
	if len(c.Comps) != 3 {
		t.Fatalf("comps = %v", c.Comps)
	}
	if c.NodeComp[0] != c.NodeComp[1] || c.NodeComp[2] != c.NodeComp[3] {
		t.Fatal("NodeComp inconsistent")
	}
	if c.NodeComp[0] == c.NodeComp[2] {
		t.Fatal("distinct components merged")
	}
	if !c.DAG.HasEdge(c.NodeComp[0], c.NodeComp[2]) {
		t.Fatal("DAG missing inter-component edge")
	}
	if !IsDAG(c.DAG) {
		t.Fatal("condensation must be a DAG")
	}
}

func TestCondenseNoSelfLoopsInDAG(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 0)
	c := Condense(g)
	ci := c.NodeComp[0]
	if c.DAG.HasEdge(ci, ci) {
		t.Fatal("condensation has a self-loop")
	}
}

func TestCondensationAlwaysDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		g := RandomDigraph(9, rng.Float64()*0.6, rng)
		c := Condense(g)
		if !IsDAG(c.DAG) {
			t.Fatalf("condensation cyclic for %v", g)
		}
	}
}

func TestRootComponentsFigure1(t *testing.T) {
	// The stable skeleton of the paper's Figure 1b: root components
	// {p1,p2} and {p3,p4,p5}; p6 downstream of {p3,p4,p5}.
	g := figure1StableSkeleton()
	roots := RootComponents(g)
	if len(roots) != 2 {
		t.Fatalf("roots = %v, want 2 components", roots)
	}
	if !roots[0].Equal(NodeSetOf(0, 1)) || !roots[1].Equal(NodeSetOf(2, 3, 4)) {
		t.Fatalf("roots = %v, want [{p1,p2} {p3,p4,p5}]", roots)
	}
}

// figure1StableSkeleton builds the paper's Figure 1b graph: self-loops,
// p1<->p2, the cycle p3->p4->p5->p3, and p5->p6.
func figure1StableSkeleton() *Digraph {
	g := NewFullDigraph(6)
	g.AddSelfLoops()
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	g.AddEdge(4, 5)
	return g
}

func TestEveryGraphHasRootComponent(t *testing.T) {
	// Paper, proof of Lemma 11: the condensation is a DAG, hence at least
	// one node with no incoming edges exists.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		g := RandomDigraph(n, rng.Float64(), rng)
		if len(RootComponents(g)) < 1 {
			t.Fatalf("no root component in %v", g)
		}
	}
}

func TestRootComponentsHaveNoIncomingEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		g := RandomDigraph(8, 0.3, rng)
		for _, root := range RootComponents(g) {
			if !ComponentOf(g, root.Min()).Equal(root) {
				t.Fatalf("reported root %v is not a component of %v", root, g)
			}
			root.ForEach(func(v int) {
				if !g.InNeighbors(v).SubsetOf(root) {
					t.Fatalf("root %v has an incoming edge at p%d in %v", root, v+1, g)
				}
			})
		}
	}
}

func TestIsDAG(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !IsDAG(g) {
		t.Fatal("chain should be a DAG")
	}
	g.AddEdge(2, 0)
	if IsDAG(g) {
		t.Fatal("cycle reported as DAG")
	}
	h := NewDigraph(1)
	h.AddEdge(0, 0)
	if IsDAG(h) {
		t.Fatal("self-loop reported as DAG")
	}
}

func TestRootComponentCountMatchesCondensationSources(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		g := RandomDigraph(10, 0.2, rng)
		c := Condense(g)
		sources := 0
		c.DAG.Nodes().ForEach(func(ci int) {
			if c.DAG.InDegree(ci) == 0 {
				sources++
			}
		})
		if got := len(RootComponents(g)); got != sources {
			t.Fatalf("roots=%d sources=%d", got, sources)
		}
	}
}

func TestRandomRootedSkeletonExactRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(14)
		roots := 1 + rng.Intn(n)
		g := RandomRootedSkeleton(n, roots, rng)
		if got := len(RootComponents(g)); got != roots {
			t.Fatalf("n=%d requested %d roots, got %d: %v", n, roots, got, g)
		}
		// Every node is reachable from some root component.
		covered := NewNodeSet(n)
		for _, root := range RootComponents(g) {
			covered.UnionWith(Reachable(g, root.Min()))
		}
		if !covered.Equal(FullNodeSet(n)) {
			t.Fatalf("nodes unreachable from roots: %v", covered)
		}
	}
}
