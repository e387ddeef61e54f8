package adversary

import (
	"math/rand"
	"testing"

	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/rounds"
	"kset/internal/skeleton"
)

// Compile-time interface checks.
var (
	_ rounds.Adversary  = (*Run)(nil)
	_ rounds.Stabilizer = (*Run)(nil)
	_ rounds.Adversary  = (*Churn)(nil)
)

func TestRunPrefixThenStable(t *testing.T) {
	g1 := graph.CompleteDigraph(3)
	stable := selfLoopGraph(3)
	run := NewRun([]*graph.Digraph{g1}, stable)
	if run.Graph(1) != g1 {
		t.Fatal("round 1 should serve prefix")
	}
	for r := 2; r <= 5; r++ {
		if run.Graph(r) != stable {
			t.Fatalf("round %d should serve stable graph", r)
		}
	}
	if run.StabilizationRound() != 2 {
		t.Fatalf("StabilizationRound = %d", run.StabilizationRound())
	}
}

func TestRunValidation(t *testing.T) {
	broken := graph.NewFullDigraph(2) // no self-loops
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing self-loops")
		}
	}()
	NewRun(nil, broken)
}

func TestRunRoundZeroPanics(t *testing.T) {
	run := Complete(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	run.Graph(0)
}

func TestRunStableSkeletonIntersectsPrefix(t *testing.T) {
	run := Eventual(Complete(3), 2)
	skel := run.StableSkeleton()
	if skel.NumEdges() != 3 {
		t.Fatalf("skeleton of isolated-prefix run should be self-loops only, got %v", skel)
	}
}

func TestIsolationAndComplete(t *testing.T) {
	iso := Isolation(4)
	if iso.Graph(1).NumEdges() != 4 {
		t.Fatal("isolation should have only self-loops")
	}
	full := Complete(4)
	if full.Graph(9).NumEdges() != 16 {
		t.Fatal("complete graph wrong")
	}
}

func TestFigure1MatchesPaperStatedProperties(t *testing.T) {
	run := Figure1()
	if run.N() != 6 {
		t.Fatalf("n = %d", run.N())
	}
	skel, rst := skeleton.StableSkeleton(run, 0)
	if !skel.Equal(Figure1StableSkeleton()) {
		t.Fatalf("stable skeleton mismatch:\n got  %v\n want %v", skel, Figure1StableSkeleton())
	}
	if rst != 3 {
		t.Fatalf("r_ST = %d, want 3 (transients die after round 2)", rst)
	}
	roots := graph.RootComponents(skel)
	if len(roots) != 2 ||
		!roots[0].Equal(graph.NodeSetOf(0, 1)) ||
		!roots[1].Equal(graph.NodeSetOf(2, 3, 4)) {
		t.Fatalf("root components = %v", roots)
	}
	// Paper: Psrcs(3) holds for this run.
	if !predicate.Holds(skel, 3) {
		t.Fatal("Psrcs(3) should hold")
	}
	if got := predicate.MinK(skel); got != 3 {
		t.Fatalf("MinK = %d, want 3", got)
	}
}

func TestFigure1TransientEdges(t *testing.T) {
	run := Figure1()
	r1, r2, r3 := run.Graph(1), run.Graph(2), run.Graph(3)
	type e struct{ u, v int }
	transientBoth := []e{{1, 5}, {4, 3}, {3, 2}} // p2->p6, p5->p4, p4->p3
	for _, ed := range transientBoth {
		if !r1.HasEdge(ed.u, ed.v) || !r2.HasEdge(ed.u, ed.v) || r3.HasEdge(ed.u, ed.v) {
			t.Fatalf("edge p%d->p%d should live in rounds 1-2 only", ed.u+1, ed.v+1)
		}
	}
	if !r1.HasEdge(1, 2) || r2.HasEdge(1, 2) {
		t.Fatal("p2->p3 should live in round 1 only")
	}
}

func TestLowerBoundStructure(t *testing.T) {
	for n := 4; n <= 10; n++ {
		for k := 2; k < n; k++ {
			run := LowerBound(n, k)
			skel := run.StableSkeleton()
			s := LowerBoundSource(k)
			L := LowerBoundIsolated(k)
			L.ForEach(func(p int) {
				if got := skel.InNeighbors(p); !got.Equal(graph.NodeSetOf(p)) {
					t.Fatalf("PT(p%d) = %v, want only itself", p+1, got)
				}
			})
			for p := 0; p < n; p++ {
				if L.Has(p) {
					continue
				}
				want := graph.NodeSetOf(p, s)
				if got := skel.InNeighbors(p); !got.Equal(want) {
					t.Fatalf("PT(p%d) = %v, want %v", p+1, got, want)
				}
			}
			if !predicate.Holds(skel, k) {
				t.Fatalf("Psrcs(%d) must hold for LowerBound(n=%d)", k, n)
			}
			if predicate.Holds(skel, k-1) {
				t.Fatalf("Psrcs(%d) must fail for LowerBound(n=%d, k=%d)", k-1, n, k)
			}
		}
	}
}

func TestLowerBoundPanics(t *testing.T) {
	for _, args := range [][2]int{{4, 1}, {4, 4}, {4, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LowerBound(%d,%d) should panic", args[0], args[1])
				}
			}()
			LowerBound(args[0], args[1])
		}()
	}
}

func TestCrashGraphSemantics(t *testing.T) {
	sched := NewCrashSchedule(4).Crash(1, 2) // p2 crashes in round 2
	run := Crashes(4, sched)
	r1, r2, r3 := run.Graph(1), run.Graph(2), run.Graph(3)
	if !r1.HasEdge(1, 0) {
		t.Fatal("p2 alive in round 1")
	}
	if r2.HasEdge(1, 0) || r2.HasEdge(1, 3) {
		t.Fatal("crash-round message delivered without partial set")
	}
	if !r2.HasEdge(1, 1) || !r3.HasEdge(1, 1) {
		t.Fatal("self-loop of crashed process must survive")
	}
	if r3.HasEdge(1, 2) {
		t.Fatal("post-crash delivery")
	}
	if run.StabilizationRound() != 3 {
		t.Fatalf("StabilizationRound = %d", run.StabilizationRound())
	}
}

func TestCrashPartialDelivery(t *testing.T) {
	sched := NewCrashSchedule(4).crashPartial(0, 1, graph.NodeSetOf(2))
	run := Crashes(4, sched)
	r1 := run.Graph(1)
	if !r1.HasEdge(0, 2) {
		t.Fatal("partial delivery lost")
	}
	if r1.HasEdge(0, 1) || r1.HasEdge(0, 3) {
		t.Fatal("non-receivers got the crash-round message")
	}
	if run.Graph(2).HasEdge(0, 2) {
		t.Fatal("partial set must not outlive the crash round")
	}
}

func TestRandomCrashesRespectsF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(6)
		f := rng.Intn(n)
		run, _ := RandomCrashes(n, f, 5, rng)
		skel := run.StableSkeleton()
		crashed := 0
		for p := 0; p < n; p++ {
			// A crashed process has only its self-loop as out-edge.
			if skel.OutNeighbors(p).Equal(graph.NodeSetOf(p)) && n > 1 {
				crashed++
			}
		}
		if crashed != f {
			t.Fatalf("crashed = %d, want %d", crashed, f)
		}
	}
}

func TestPartition(t *testing.T) {
	run := Partition(6, EvenPartition(6, 2))
	skel := run.StableSkeleton()
	if !skel.HasEdge(0, 2) || skel.HasEdge(0, 3) {
		t.Fatal("partition edges wrong")
	}
	roots := graph.RootComponents(skel)
	if len(roots) != 2 {
		t.Fatalf("roots = %v", roots)
	}
	if got := predicate.MinK(skel); got != 2 {
		t.Fatalf("MinK = %d, want 2 (one per partition)", got)
	}
}

func TestPartitionValidation(t *testing.T) {
	for _, blocks := range [][][]int{
		{{0, 1}, {1, 2}}, // overlap
		{{0, 1}},         // does not cover
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Partition(%v) should panic", blocks)
				}
			}()
			Partition(3, blocks)
		}()
	}
}

func TestEvenPartition(t *testing.T) {
	blocks := EvenPartition(7, 3)
	total := 0
	for _, b := range blocks {
		total += len(b)
		if len(b) < 2 || len(b) > 3 {
			t.Fatalf("unbalanced blocks: %v", blocks)
		}
	}
	if total != 7 {
		t.Fatalf("blocks do not cover: %v", blocks)
	}
}

func TestWithNoisePreservesSkeleton(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		base := RandomSources(8, 1+rng.Intn(4), 0, 0, rng)
		noisy := withNoise(base, 6, 0.4, rng)
		if !noisy.StableSkeleton().Equal(base.StableSkeleton()) {
			t.Fatal("noise changed the stable skeleton")
		}
		// Noise only adds edges.
		for r := 1; r <= 6; r++ {
			if !base.Graph(r).SubgraphOf(noisy.Graph(r)) {
				t.Fatalf("noise removed edges in round %d", r)
			}
		}
	}
}

func TestRandomSourcesRootCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		roots := 1 + rng.Intn(n)
		run := RandomSources(n, roots, 3, 0.2, rng)
		skel := run.StableSkeleton()
		if got := len(graph.RootComponents(skel)); got != roots {
			t.Fatalf("roots = %d, want %d", got, roots)
		}
		minK := predicate.MinK(skel)
		if minK < roots {
			t.Fatalf("MinK %d < roots %d contradicts Theorem 1", minK, roots)
		}
	}
}

func TestEventualIsolationPrefix(t *testing.T) {
	base := Figure1()
	run := Eventual(base, 3)
	for r := 1; r <= 3; r++ {
		if run.Graph(r).NumEdges() != 6 {
			t.Fatalf("round %d not isolated", r)
		}
	}
	// Base prefix follows after the isolation rounds.
	if !run.Graph(4).Equal(base.Graph(1)) {
		t.Fatal("base prefix not preserved after isolation")
	}
	if !run.Graph(6).Equal(base.Graph(3)) {
		t.Fatal("stable graph wrong after shifted prefix")
	}
}

func TestChurnDeterministicPerRound(t *testing.T) {
	core := Figure1StableSkeleton()
	ch := NewChurn(core, 0.3, 42)
	for r := 1; r <= 5; r++ {
		if !ch.Graph(r).Equal(ch.Graph(r)) {
			t.Fatalf("Graph(%d) not deterministic", r)
		}
	}
	if ch.Graph(1).Equal(ch.Graph(2)) {
		t.Fatal("distinct rounds should differ with overwhelming probability")
	}
}

func TestChurnContainsCore(t *testing.T) {
	core := Figure1StableSkeleton()
	ch := NewChurn(core, 0.5, 7)
	for r := 1; r <= 10; r++ {
		if !core.SubgraphOf(ch.Graph(r)) {
			t.Fatalf("core not contained in round %d", r)
		}
	}
}

func TestChurnSkeletonConvergesToCore(t *testing.T) {
	core := Figure1StableSkeleton()
	ch := NewChurn(core, 0.3, 11)
	tr := skeleton.NewTracker(6, false)
	for r := 1; r <= 60; r++ {
		tr.Observe(r, ch.Graph(r))
	}
	if !tr.Skeleton().Equal(core) {
		t.Fatalf("skeleton did not converge to core after 60 rounds:\n got  %v\n want %v",
			tr.Skeleton(), core)
	}
}

func TestChurnCoreValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing self-loops")
		}
	}()
	NewChurn(graph.NewFullDigraph(3), 0.1, 0)
}

// TestHubClustersProperties pins the analytic claims HubClusters is
// built on: exactly one root component (the hub clique), MinK equal to
// the hub count, and the ~3n edge budget that keeps the per-trial MinK
// computation tractable at large n. Widths on both sides of the one-word
// boundary are covered.
func TestHubClustersProperties(t *testing.T) {
	cases := []struct{ n, hubs int }{
		{8, 1}, {12, 3}, {63, 4}, {64, 2}, {65, 2}, {130, 4},
	}
	for _, c := range cases {
		run := HubClusters(c.n, c.hubs, 0, 0, nil)
		skel := run.StableSkeleton()
		if roots := graph.RootComponents(skel); len(roots) != 1 {
			t.Errorf("n=%d hubs=%d: %d root components, want 1", c.n, c.hubs, len(roots))
		}
		if got := predicate.MinK(skel); got != c.hubs {
			t.Errorf("n=%d hubs=%d: MinK = %d, want %d", c.n, c.hubs, got, c.hubs)
		}
		// Self-loops n, hub clique hubs², hub→member + pred→member 2(n-hubs);
		// minus the overlaps already counted as self-loops is an upper bound.
		if max := c.n + c.hubs*c.hubs + 2*(c.n-c.hubs); skel.NumEdges() > max {
			t.Errorf("n=%d hubs=%d: %d skeleton edges, want <= %d", c.n, c.hubs, skel.NumEdges(), max)
		}
	}
}

// TestHubClustersNoise checks that a noisy prefix leaves the stable
// skeleton untouched (noise only ever adds edges, only before
// stabilization).
func TestHubClustersNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	quiet := HubClusters(20, 2, 0, 0, nil)
	noisy := HubClusters(20, 2, 8, 0.1, rng)
	if !noisy.StableSkeleton().Equal(quiet.StableSkeleton()) {
		t.Fatal("noise changed the stable skeleton")
	}
	if noisy.StabilizationRound() != 9 {
		t.Fatalf("stabilization round = %d, want 9", noisy.StabilizationRound())
	}
}

// TestHubClustersValidation pins the constructor's bounds.
func TestHubClustersValidation(t *testing.T) {
	for _, c := range []struct{ n, hubs int }{{8, 0}, {8, 5}, {4, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HubClusters(%d, %d) did not panic", c.n, c.hubs)
				}
			}()
			HubClusters(c.n, c.hubs, 0, 0, nil)
		}()
	}
}
