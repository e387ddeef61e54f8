package adversary

import (
	"testing"

	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/rounds"
)

// Compile-time interface checks for the dynamic-network family.
var (
	_ rounds.Adversary  = (*TInterval)(nil)
	_ rounds.Stabilizer = (*TInterval)(nil)
	_ rounds.Adversary  = (*PartitionMerge)(nil)
	_ rounds.Stabilizer = (*PartitionMerge)(nil)
	_ rounds.Adversary  = (*VertexStableRoot)(nil)
)

// sameGraphSequence checks Graph(r) equality for two adversaries over a
// prefix of rounds.
func sameGraphSequence(t *testing.T, a, b rounds.Adversary, upTo int) {
	t.Helper()
	for r := 1; r <= upTo; r++ {
		if !a.Graph(r).Equal(b.Graph(r)) {
			t.Fatalf("round %d graphs differ for identical seeds", r)
		}
	}
}

func TestTIntervalDeterministic(t *testing.T) {
	a := NewTInterval(12, 3, 24, 4, 77)
	b := NewTInterval(12, 3, 24, 4, 77)
	sameGraphSequence(t, a, b, 40)
	// Repeated queries of the same round must also agree (executor
	// contract, same as Churn).
	if !a.Graph(5).Equal(a.Graph(5)) {
		t.Fatal("Graph(5) not reproducible")
	}
	c := NewTInterval(12, 3, 24, 4, 78)
	differ := false
	for r := 1; r <= 24; r++ {
		if !a.Graph(r).Equal(c.Graph(r)) {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestTIntervalEpochsAndStabilization(t *testing.T) {
	a := NewTInterval(8, 4, 10, 2, 1)
	// Rounds 1-4 epoch 0, 5-8 epoch 1, 9-10 epoch 2, frozen afterwards.
	for r, want := range map[int]int{1: 0, 4: 0, 5: 1, 8: 1, 9: 2, 10: 2, 11: 2, 100: 2} {
		if got := a.epoch(r); got != want {
			t.Fatalf("Epoch(%d) = %d, want %d", r, got, want)
		}
	}
	if got := a.StabilizationRound(); got != 9 {
		t.Fatalf("StabilizationRound = %d, want 9", got)
	}
	// Within an epoch the graph is constant; the frozen tail equals the
	// final epoch's graph.
	if !a.Graph(5).Equal(a.Graph(8)) {
		t.Fatal("graphs differ within one epoch")
	}
	if !a.Graph(9).Equal(a.Graph(500)) {
		t.Fatal("graph changed after the stabilization round")
	}
}

func TestTIntervalSkeletonIsEpochIntersection(t *testing.T) {
	a := NewTInterval(10, 2, 11, 3, 5)
	want := a.Graph(1).Clone()
	for r := 2; r <= a.StabilizationRound(); r++ {
		want.IntersectWith(a.Graph(r))
	}
	if !a.StableSkeleton().Equal(want) {
		t.Fatal("StableSkeleton is not the intersection of the epoch graphs")
	}
	// Every round graph must satisfy the model requirements.
	for r := 1; r <= 12; r++ {
		g := a.Graph(r)
		for v := 0; v < 10; v++ {
			if !g.HasNode(v) || !g.HasEdge(v, v) {
				t.Fatalf("round %d graph violates self-loop requirement", r)
			}
		}
	}
}

func TestPartitionMergeDeterministic(t *testing.T) {
	a := NewPartitionMerge(16, 4, 3, 9)
	b := NewPartitionMerge(16, 4, 3, 9)
	sameGraphSequence(t, a, b, 20)
}

func TestPartitionMergeSchedule(t *testing.T) {
	a := NewPartitionMerge(12, 4, 5, 2)
	// 4 groups halve twice: stage 0 rounds 1-5 (4 comps), stage 1 rounds
	// 6-10 (2 comps), stage 2 from round 11 (1 comp).
	for r, want := range map[int]int{1: 4, 5: 4, 6: 2, 10: 2, 11: 1, 99: 1} {
		if got := len(graph.RootComponents(a.Graph(r))); got != want {
			t.Fatalf("round %d: %d components, want %d", r, got, want)
		}
	}
	if got := a.StabilizationRound(); got != 11 {
		t.Fatalf("StabilizationRound = %d, want 11", got)
	}
	if !a.Graph(11).Equal(graph.CompleteDigraph(12)) {
		t.Fatal("fully merged graph is not the complete graph")
	}
}

func TestPartitionMergeSkeletonHasCRootsAndMinKC(t *testing.T) {
	for _, c := range []int{2, 3, 5} {
		a := NewPartitionMerge(15, c, 4, int64(c))
		skel := a.StableSkeleton()
		if got := len(graph.RootComponents(skel)); got != c {
			t.Fatalf("c=%d: %d root components", c, got)
		}
		if got := predicate.MinK(skel); got != c {
			t.Fatalf("c=%d: MinK = %d", c, got)
		}
		// Edges are only added over time: every round graph contains the
		// skeleton.
		for r := 1; r <= a.StabilizationRound()+1; r++ {
			inter := a.Graph(r).Clone()
			inter.IntersectWith(skel)
			if !inter.Equal(skel) {
				t.Fatalf("c=%d round %d: skeleton edge missing from round graph", c, r)
			}
		}
	}
}

func TestVertexStableRootDeterministic(t *testing.T) {
	a := NewVertexStableRoot(14, 4, 0.3, 123)
	b := NewVertexStableRoot(14, 4, 0.3, 123)
	sameGraphSequence(t, a, b, 30)
	if !a.Graph(7).Equal(a.Graph(7)) {
		t.Fatal("Graph(7) not reproducible")
	}
}

func TestVertexStableRootStructure(t *testing.T) {
	n, rootSize := 12, 3
	a := NewVertexStableRoot(n, rootSize, 0.4, 31)
	base := a.Base()
	// The base must be Psrcs(1): a single root component whose apex
	// reaches everyone perpetually.
	if got := len(graph.RootComponents(base)); got != 1 {
		t.Fatalf("base has %d root components", got)
	}
	if got := predicate.MinK(base); got != 1 {
		t.Fatalf("base MinK = %d, want 1", got)
	}
	for r := 1; r <= 25; r++ {
		g := a.Graph(r)
		// Every round contains the perpetual part...
		inter := g.Clone()
		inter.IntersectWith(base)
		if !inter.Equal(base) {
			t.Fatalf("round %d dropped a perpetual edge", r)
		}
		// ...and never adds root-internal edges beyond the clique (the
		// root is vertex-stable by construction, nothing to add) while
		// self-loops are all present.
		for v := 0; v < n; v++ {
			if !g.HasEdge(v, v) {
				t.Fatalf("round %d missing self-loop", r)
			}
		}
	}
	// The periphery actually gets rewired: some round must differ from
	// the base and from another round.
	if a.Graph(1).Equal(base) && a.Graph(2).Equal(base) && a.Graph(3).Equal(base) {
		t.Fatal("no transient edges ever appeared at p=0.4")
	}
	if a.Graph(1).Equal(a.Graph(2)) && a.Graph(2).Equal(a.Graph(3)) {
		t.Fatal("periphery not rewired across rounds")
	}
}

func TestDynamicAdversaryValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("TInterval T=0", func() { NewTInterval(4, 0, 8, 2, 1) })
	mustPanic("TInterval maxRoots", func() { NewTInterval(4, 2, 8, 5, 1) })
	mustPanic("TInterval horizon", func() { NewTInterval(4, 2, 0, 2, 1) })
	mustPanic("PartitionMerge c", func() { NewPartitionMerge(4, 5, 2, 1) })
	mustPanic("PartitionMerge every", func() { NewPartitionMerge(4, 2, 0, 1) })
	mustPanic("VertexStableRoot rootSize", func() { NewVertexStableRoot(4, 0, 0.2, 1) })
	mustPanic("VertexStableRoot p", func() { NewVertexStableRoot(4, 2, 1.5, 1) })
	mustPanic("TInterval round 0", func() { NewTInterval(4, 2, 8, 2, 1).Graph(0) })
	mustPanic("PartitionMerge round 0", func() { NewPartitionMerge(4, 2, 2, 1).Graph(0) })
	mustPanic("VertexStableRoot round 0", func() { NewVertexStableRoot(4, 2, 0.2, 1).Graph(0) })
}
