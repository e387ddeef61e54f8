package graph

import (
	"math/rand"
	"testing"
)

func TestLabeledMergeMaxWins(t *testing.T) {
	g := NewLabeled(4)
	if !g.MergeEdge(0, 1, 3) {
		t.Fatal("first merge should change")
	}
	if g.MergeEdge(0, 1, 2) {
		t.Fatal("lower label should not overwrite")
	}
	if got := g.Label(0, 1); got != 3 {
		t.Fatalf("Label = %d, want 3", got)
	}
	if !g.MergeEdge(0, 1, 5) {
		t.Fatal("higher label should overwrite")
	}
	if got := g.Label(0, 1); got != 5 {
		t.Fatalf("Label = %d, want 5", got)
	}
}

func TestLabeledOneLabelPerPair(t *testing.T) {
	// Lemma 3(c)/4(b): at most one labeled edge per ordered pair.
	g := NewLabeled(3)
	g.MergeEdge(0, 1, 1)
	g.MergeEdge(0, 1, 4)
	g.MergeEdge(0, 1, 2)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestLabeledMergeAddsNodes(t *testing.T) {
	g := NewLabeled(4)
	g.MergeEdge(2, 3, 1)
	if !g.HasNode(2) || !g.HasNode(3) {
		t.Fatal("endpoints not added")
	}
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
}

func TestLabeledZeroLabelPanics(t *testing.T) {
	g := NewLabeled(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.MergeEdge(0, 1, 0)
}

func TestLabeledPurge(t *testing.T) {
	g := NewLabeled(4)
	g.MergeEdge(0, 1, 1)
	g.MergeEdge(1, 2, 2)
	g.MergeEdge(2, 3, 3)
	if got := g.PurgeOlderThan(2); got != 2 {
		t.Fatalf("purged %d, want 2", got)
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 2) {
		t.Fatal("old edges survived purge")
	}
	if !g.HasEdge(2, 3) {
		t.Fatal("fresh edge purged")
	}
	// Nodes stay present after purge (only PruneUnreachableTo drops nodes).
	if !g.HasNode(0) {
		t.Fatal("node dropped by purge")
	}
}

func TestLabeledRemoveNode(t *testing.T) {
	g := NewLabeled(3)
	g.MergeEdge(0, 1, 1)
	g.MergeEdge(1, 2, 2)
	g.MergeEdge(2, 1, 2)
	g.RemoveNode(1)
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after hub removal", g.NumEdges())
	}
	if g.HasNode(1) {
		t.Fatal("node still present")
	}
}

func TestLabeledPruneUnreachableTo(t *testing.T) {
	// 0 -> 1 -> 2, and 3 dangling off 2 (2->3): node 3 cannot reach 2.
	g := NewLabeled(5)
	g.MergeEdge(0, 1, 1)
	g.MergeEdge(1, 2, 1)
	g.MergeEdge(2, 3, 1)
	g.AddNode(4) // isolated
	var scratch ReachScratch
	removed := g.PruneUnreachableToInPlace(2, &scratch)
	if removed != 2 {
		t.Fatalf("removed = %d, want 2 (p4 and p5)", removed)
	}
	if g.HasNode(3) || g.HasNode(4) {
		t.Fatal("unreachable-to-p nodes kept")
	}
	if !g.HasNode(0) || !g.HasNode(1) || !g.HasNode(2) {
		t.Fatal("ancestors dropped")
	}
}

func TestLabeledPruneKeepsTargetEvenIfAbsent(t *testing.T) {
	g := NewLabeled(3)
	g.MergeEdge(0, 1, 1)
	var scratch ReachScratch
	g.PruneUnreachableToInPlace(2, &scratch)
	if !g.HasNode(2) {
		t.Fatal("target not present after prune")
	}
	if g.HasNode(0) || g.HasNode(1) {
		t.Fatal("nodes not reaching target survived")
	}
}

func TestLabeledUnlabeled(t *testing.T) {
	g := NewLabeled(3)
	g.MergeEdge(0, 1, 7)
	g.AddNode(2)
	d := g.Unlabeled()
	if !d.HasEdge(0, 1) || !d.HasNode(2) {
		t.Fatal("Unlabeled lost structure")
	}
	if d.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", d.NumEdges())
	}
}

func TestLabeledStronglyConnected(t *testing.T) {
	g := NewLabeled(3)
	g.AddNode(0)
	if !g.StronglyConnected() {
		t.Fatal("single node should be strongly connected")
	}
	g.MergeEdge(0, 1, 1)
	if g.StronglyConnected() {
		t.Fatal("one-way edge reported strongly connected")
	}
	g.MergeEdge(1, 0, 2)
	if !g.StronglyConnected() {
		t.Fatal("2-cycle should be strongly connected")
	}
}

func TestLabeledSelfLoopIgnoredForConnectivity(t *testing.T) {
	g := NewLabeled(2)
	g.MergeEdge(0, 0, 1)
	if !g.StronglyConnected() {
		t.Fatal("single node with self-loop should be strongly connected")
	}
}

func TestLabeledReset(t *testing.T) {
	g := NewLabeled(3)
	g.MergeEdge(0, 1, 5)
	g.Reset()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("Reset incomplete")
	}
	g.MergeEdge(1, 2, 1)
	if g.Label(0, 1) != 0 {
		t.Fatal("stale label after reset")
	}
}

func TestLabeledCloneAndCopyFrom(t *testing.T) {
	g := NewLabeled(3)
	g.MergeEdge(0, 1, 2)
	c := g.Clone()
	c.MergeEdge(1, 2, 3)
	if g.HasEdge(1, 2) {
		t.Fatal("clone aliases original")
	}
	h := NewLabeled(3)
	h.CopyFrom(g)
	if !h.Equal(g) {
		t.Fatal("CopyFrom mismatch")
	}
	h.MergeEdge(2, 0, 9)
	if g.HasEdge(2, 0) {
		t.Fatal("CopyFrom aliases source")
	}
}

func TestLabeledEqual(t *testing.T) {
	a := NewLabeled(3)
	a.MergeEdge(0, 1, 2)
	b := NewLabeled(3)
	b.MergeEdge(0, 1, 2)
	if !a.Equal(b) {
		t.Fatal("identical graphs not Equal")
	}
	b.MergeEdge(0, 1, 3)
	if a.Equal(b) {
		t.Fatal("different labels Equal")
	}
	c := NewLabeled(3)
	c.MergeEdge(0, 1, 2)
	c.AddNode(2)
	if a.Equal(c) {
		t.Fatal("different node sets Equal")
	}
}

func TestLabeledLabelMultiset(t *testing.T) {
	g := NewLabeled(4)
	g.MergeEdge(0, 1, 2)
	g.MergeEdge(1, 2, 1)
	g.MergeEdge(2, 3, 2)
	g.MergeEdge(3, 3, 9) // self-loop excluded
	got := g.LabelMultiset()
	want := []int{2, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("multiset = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multiset = %v, want %v", got, want)
		}
	}
}

func TestLabeledEdgesDeterministic(t *testing.T) {
	g := NewLabeled(3)
	g.MergeEdge(2, 0, 1)
	g.MergeEdge(0, 2, 3)
	g.MergeEdge(0, 1, 2)
	e := g.Edges()
	want := []LabeledEdge{{0, 1, 2}, {0, 2, 3}, {2, 0, 1}}
	if len(e) != len(want) {
		t.Fatalf("Edges = %v", e)
	}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", e, want)
		}
	}
}

func TestLabeledString(t *testing.T) {
	g := NewLabeled(3)
	g.MergeEdge(1, 2, 4)
	if got := g.String(); got != "p2-4->p3" {
		t.Fatalf("String = %q", got)
	}
	empty := NewLabeled(2)
	empty.AddNode(0)
	if got := empty.String(); got != "(nodes {p1}, no edges)" {
		t.Fatalf("String = %q", got)
	}
}

func TestLabeledRandomizedMaxMergeCommutes(t *testing.T) {
	// Merging the same multiset of labeled edges in any order yields the
	// same graph (max is commutative/associative/idempotent).
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		type le struct{ u, v, l int }
		var edges []le
		for i := 0; i < 20; i++ {
			edges = append(edges, le{rng.Intn(n), rng.Intn(n), 1 + rng.Intn(9)})
		}
		a := NewLabeled(n)
		for _, e := range edges {
			a.MergeEdge(e.u, e.v, e.l)
		}
		b := NewLabeled(n)
		for _, i := range rng.Perm(len(edges)) {
			b.MergeEdge(edges[i].u, edges[i].v, edges[i].l)
		}
		if !a.Equal(b) {
			t.Fatal("merge order changed result")
		}
	}
}
