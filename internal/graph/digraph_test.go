package graph

import (
	"math/rand"
	"testing"
)

func TestDigraphNodesAndEdges(t *testing.T) {
	g := NewDigraph(5)
	if g.numNodes() != 0 {
		t.Fatal("new graph should have no nodes")
	}
	g.AddEdge(0, 1) // implicitly adds both endpoints
	if !g.HasNode(0) || !g.HasNode(1) {
		t.Fatal("AddEdge did not add endpoints")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge direction wrong")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	g.AddEdge(0, 1) // duplicate
	if g.NumEdges() != 1 {
		t.Fatal("duplicate edge counted")
	}
}

func TestDigraphInOutNeighbors(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	in := g.InNeighbors(2)
	if !in.Equal(NodeSetOf(0, 1)) {
		t.Fatalf("InNeighbors(2) = %v", in)
	}
	out := g.OutNeighbors(2)
	if !out.Equal(NodeSetOf(3)) {
		t.Fatalf("OutNeighbors(2) = %v", out)
	}
	if g.inDegree(2) != 2 || g.OutDegree(2) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestDigraphRemoveEdge(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Fatal("edge not removed")
	}
	if !g.HasNode(0) || !g.HasNode(1) {
		t.Fatal("RemoveEdge should keep nodes")
	}
}

func TestDigraphRemoveNodeCleansAdjacency(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(1, 1)
	g.removeNode(1)
	if g.HasNode(1) {
		t.Fatal("node still present")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after removing hub", g.NumEdges())
	}
	if g.InNeighbors(2).Len() != 0 || g.OutNeighbors(0).Len() != 0 {
		t.Fatal("stale adjacency left behind")
	}
}

func TestDigraphSelfLoops(t *testing.T) {
	g := NewFullDigraph(3)
	g.AddSelfLoops()
	for v := 0; v < 3; v++ {
		if !g.HasEdge(v, v) {
			t.Fatalf("missing self-loop %d", v)
		}
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
}

func TestCompleteDigraph(t *testing.T) {
	g := CompleteDigraph(4)
	if g.NumEdges() != 16 {
		t.Fatalf("NumEdges = %d, want 16", g.NumEdges())
	}
}

func TestDigraphIntersect(t *testing.T) {
	a := NewDigraph(4)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	a.AddEdge(2, 3)
	b := NewDigraph(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	got := a.Intersect(b)
	if !got.HasEdge(0, 1) || !got.HasEdge(2, 3) {
		t.Fatal("missing common edges")
	}
	if got.HasEdge(1, 2) || got.HasEdge(3, 0) {
		t.Fatal("non-common edge present")
	}
}

func TestDigraphIntersectNodes(t *testing.T) {
	a := NewDigraph(4)
	a.AddNode(0)
	a.AddNode(1)
	a.AddEdge(0, 1)
	b := NewDigraph(4)
	b.AddNode(1)
	b.AddNode(2)
	got := a.Intersect(b)
	if !got.Nodes().Equal(NodeSetOf(1)) {
		t.Fatalf("nodes = %v, want {p2}", got.Nodes())
	}
	if got.NumEdges() != 0 {
		t.Fatal("edges with absent endpoint survived")
	}
}

func TestDigraphIntersectWithMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a := RandomDigraph(8, 0.3, rng)
		b := RandomDigraph(8, 0.3, rng)
		want := a.Intersect(b)
		c := a.Clone()
		changed := c.IntersectWith(b)
		if !c.Equal(want) {
			t.Fatalf("IntersectWith != Intersect\n a=%v\n b=%v", a, b)
		}
		if changed != !a.Equal(want) {
			t.Fatal("changed flag wrong")
		}
	}
}

func TestDigraphInducedSubgraph(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	sub := g.InducedSubgraph(NodeSetOf(0, 1, 2))
	if sub.HasNode(3) || sub.HasEdge(2, 3) {
		t.Fatal("excluded node leaked")
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || !sub.HasEdge(2, 0) {
		t.Fatal("internal edges missing")
	}
}

func TestDigraphTranspose(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1)
	tr := g.transpose()
	if !tr.HasEdge(1, 0) || tr.HasEdge(0, 1) {
		t.Fatal("transpose wrong")
	}
	if !tr.HasEdge(1, 1) {
		t.Fatal("self-loop lost")
	}
	if !tr.transpose().Equal(g) {
		t.Fatal("double transpose != original")
	}
}

func TestDigraphSubgraphOf(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	h := g.Clone()
	h.AddEdge(1, 2)
	if !g.SubgraphOf(h) {
		t.Fatal("g should be subgraph of h")
	}
	if h.SubgraphOf(g) {
		t.Fatal("h is not subgraph of g")
	}
}

func TestDigraphCloneIndependence(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("clone aliases original")
	}
	c.removeNode(0)
	if !g.HasNode(0) {
		t.Fatal("clone aliases original nodes")
	}
}

func TestDigraphEqual(t *testing.T) {
	a := NewDigraph(3)
	a.AddEdge(0, 1)
	b := NewDigraph(3)
	b.AddEdge(0, 1)
	if !a.Equal(b) {
		t.Fatal("equal graphs not Equal")
	}
	b.AddNode(2)
	if a.Equal(b) {
		t.Fatal("different node sets Equal")
	}
}

func TestDigraphEdgesDeterministic(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(3, 0)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	e := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {3, 0}}
	if len(e) != len(want) {
		t.Fatalf("Edges = %v", e)
	}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", e, want)
		}
	}
}

func TestDigraphString(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	if got := g.String(); got != "p1->{p2,p3}; p2->{}; p3->{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestDigraphOutOfUniversePanics(t *testing.T) {
	g := NewDigraph(2)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 2) },
		func() { g.AddNode(-1) },
		func() { g.InNeighbors(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDigraphIntersectUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDigraph(2).Intersect(NewDigraph(3))
}
