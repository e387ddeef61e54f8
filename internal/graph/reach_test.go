package graph

import (
	"math/rand"
	"testing"
)

func chainGraph(n int) *Digraph {
	g := NewDigraph(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestReachable(t *testing.T) {
	g := chainGraph(4)
	if got := reachable(g, 1); !got.Equal(NodeSetOf(1, 2, 3)) {
		t.Fatalf("Reachable(1) = %v", got)
	}
	if got := reachable(g, 3); !got.Equal(NodeSetOf(3)) {
		t.Fatalf("Reachable(3) = %v", got)
	}
}

func TestNodesReaching(t *testing.T) {
	g := chainGraph(4)
	if got := nodesReaching(g, 2); !got.Equal(NodeSetOf(0, 1, 2)) {
		t.Fatalf("NodesReaching(2) = %v", got)
	}
	if got := nodesReaching(g, 0); !got.Equal(NodeSetOf(0)) {
		t.Fatalf("NodesReaching(0) = %v", got)
	}
}

func TestReachableMirrorsNodesReachingOnTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 150; trial++ {
		g := RandomDigraph(9, 0.25, rng)
		tr := g.transpose()
		for v := 0; v < 9; v++ {
			if !reachable(g, v).Equal(nodesReaching(tr, v)) {
				t.Fatalf("mismatch at %d in %v", v, g)
			}
		}
	}
}

func TestDistances(t *testing.T) {
	g := chainGraph(4)
	g.AddEdge(0, 2) // shortcut
	d := Distances(g, 0)
	want := []int{0, 1, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Distances = %v, want %v", d, want)
		}
	}
}

func TestDistancesUnreachable(t *testing.T) {
	g := NewDigraph(3)
	g.AddNode(0)
	g.AddNode(1)
	g.AddNode(2)
	g.AddEdge(0, 1)
	d := Distances(g, 0)
	if d[2] != -1 {
		t.Fatalf("unreachable distance = %d, want -1", d[2])
	}
}

func TestSelfLoopDoesNotChangeDistance(t *testing.T) {
	g := chainGraph(3)
	g.AddSelfLoops()
	d := Distances(g, 0)
	if d[0] != 0 || d[1] != 1 || d[2] != 2 {
		t.Fatalf("Distances = %v", d)
	}
}

func TestReachablePanicsOnAbsent(t *testing.T) {
	g := NewDigraph(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	reachable(g, 0)
}
