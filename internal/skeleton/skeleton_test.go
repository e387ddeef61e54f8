package skeleton

import (
	"math/rand"
	"testing"

	"kset/internal/graph"
	"kset/internal/rounds"
)

// seqAdv replays graphs then repeats the last one forever.
type seqAdv struct {
	graphs []*graph.Digraph
}

func (a seqAdv) N() int { return a.graphs[0].N() }
func (a seqAdv) Graph(r int) *graph.Digraph {
	if r-1 < len(a.graphs) {
		return a.graphs[r-1]
	}
	return a.graphs[len(a.graphs)-1]
}
func (a seqAdv) StabilizationRound() int { return len(a.graphs) }

func loopy(n int, edges ...[2]int) *graph.Digraph {
	g := graph.NewFullDigraph(n)
	g.AddSelfLoops()
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestTrackerIntersects(t *testing.T) {
	tr := NewTracker(3, false)
	tr.Observe(1, loopy(3, [2]int{0, 1}, [2]int{1, 2}))
	tr.Observe(2, loopy(3, [2]int{0, 1}))
	s := tr.Skeleton()
	if !s.HasEdge(0, 1) {
		t.Fatal("persistent edge lost")
	}
	if s.HasEdge(1, 2) {
		t.Fatal("transient edge kept")
	}
	for v := 0; v < 3; v++ {
		if !s.HasEdge(v, v) {
			t.Fatal("self-loop lost")
		}
	}
}

func TestTrackerMonotone(t *testing.T) {
	// Paper eq. (1): G^∩r ⊇ G^∩(r+1).
	rng := rand.New(rand.NewSource(5))
	tr := NewTracker(6, true)
	prev := tr.Skeleton()
	for r := 1; r <= 20; r++ {
		g := graph.RandomDigraph(6, 0.6, rng)
		tr.Observe(r, g)
		cur := tr.Skeleton()
		if !cur.SubgraphOf(prev) {
			t.Fatalf("skeleton grew at round %d", r)
		}
		prev = cur
	}
}

func TestTrackerPTMonotone(t *testing.T) {
	// Paper eq. (3): PT(p, r) ⊇ PT(p, r+1).
	rng := rand.New(rand.NewSource(6))
	tr := NewTracker(5, false)
	prev := make([]graph.NodeSet, 5)
	for p := range prev {
		prev[p] = graph.FullNodeSet(5)
	}
	for r := 1; r <= 15; r++ {
		tr.Observe(r, graph.RandomDigraph(5, 0.5, rng))
		for p := 0; p < 5; p++ {
			cur := tr.PT(p)
			if !cur.SubsetOf(prev[p]) {
				t.Fatalf("PT(p%d) grew at round %d", p+1, r)
			}
			if !cur.Has(p) {
				t.Fatalf("p%d not in own PT", p+1)
			}
			prev[p] = cur
		}
	}
}

func TestTrackerOutOfOrderPanics(t *testing.T) {
	tr := NewTracker(2, false)
	tr.Observe(1, loopy(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Observe(3, loopy(2))
}

func TestTrackerUniverseMismatchPanics(t *testing.T) {
	tr := NewTracker(2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Observe(1, loopy(3))
}

func TestTrackerLastChange(t *testing.T) {
	tr := NewTracker(3, false)
	stable := loopy(3, [2]int{0, 1})
	noisy := loopy(3, [2]int{0, 1}, [2]int{2, 0})
	tr.Observe(1, noisy)  // drops everything except noisy's edges: change
	tr.Observe(2, noisy)  // no change
	tr.Observe(3, stable) // drops 2->0: change
	tr.Observe(4, stable)
	tr.Observe(5, stable)
	if got := tr.LastChange(); got != 3 {
		t.Fatalf("LastChange = %d, want 3", got)
	}
}

func TestTrackerLastChangeZeroForSynchronousRun(t *testing.T) {
	tr := NewTracker(2, false)
	full := graph.CompleteDigraph(2)
	for r := 1; r <= 4; r++ {
		tr.Observe(r, full)
	}
	if got := tr.LastChange(); got != 0 {
		t.Fatalf("LastChange = %d, want 0", got)
	}
}

func TestTrackerHistory(t *testing.T) {
	tr := NewTracker(3, true)
	g1 := loopy(3, [2]int{0, 1}, [2]int{1, 2})
	g2 := loopy(3, [2]int{0, 1})
	tr.Observe(1, g1)
	tr.Observe(2, g2)
	if !tr.At(1).Equal(g1) {
		t.Fatal("At(1) wrong")
	}
	want := g1.Intersect(g2)
	if !tr.At(2).Equal(want) {
		t.Fatal("At(2) wrong")
	}
}

func TestTrackerAtPanics(t *testing.T) {
	tr := NewTracker(2, false)
	tr.Observe(1, loopy(2))
	for _, fn := range []func(){
		func() { tr.At(1) },                  // no history recorded
		func() { NewTracker(2, true).At(1) }, // not yet observed
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

func TestTrackerAsObserver(t *testing.T) {
	adv := seqAdv{graphs: []*graph.Digraph{
		loopy(3, [2]int{0, 1}, [2]int{1, 2}),
		loopy(3, [2]int{0, 1}),
	}}
	tr := NewTracker(3, false)
	_, err := rounds.RunSequential(rounds.Config{
		Adversary:  adv,
		NewProcess: func(int) rounds.Algorithm { return noop{} },
		MaxRounds:  6,
		Observer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Round() != 6 {
		t.Fatalf("Round = %d", tr.Round())
	}
	if tr.Skeleton().HasEdge(1, 2) {
		t.Fatal("transient edge survived")
	}
	if !tr.Skeleton().HasEdge(0, 1) {
		t.Fatal("stable edge lost")
	}
}

type noop struct{}

func (noop) Init(int, int)         {}
func (noop) Send(int) any          { return struct{}{} }
func (noop) Transition(int, []any) {}

func TestStableSkeletonWithStabilizer(t *testing.T) {
	adv := seqAdv{graphs: []*graph.Digraph{
		loopy(4, [2]int{0, 1}, [2]int{1, 0}, [2]int{2, 3}),
		loopy(4, [2]int{0, 1}, [2]int{1, 0}),
	}}
	skel, rst := StableSkeleton(adv, 0)
	if !skel.HasEdge(0, 1) || !skel.HasEdge(1, 0) {
		t.Fatal("stable edges missing")
	}
	if skel.HasEdge(2, 3) {
		t.Fatal("transient edge in stable skeleton")
	}
	if rst != 2 {
		t.Fatalf("r_ST = %d, want 2", rst)
	}
}

func TestStableSkeletonHorizon(t *testing.T) {
	// Without a Stabilizer, a horizon must be given.
	adv := plainAdv{seqAdv{graphs: []*graph.Digraph{loopy(2, [2]int{0, 1})}}}
	skel, _ := StableSkeleton(adv, 5)
	if !skel.HasEdge(0, 1) {
		t.Fatal("edge missing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without horizon")
		}
	}()
	StableSkeleton(adv, 0)
}

// plainAdv hides the Stabilizer method of the embedded adversary.
type plainAdv struct{ inner seqAdv }

func (a plainAdv) N() int                     { return a.inner.N() }
func (a plainAdv) Graph(r int) *graph.Digraph { return a.inner.Graph(r) }

func TestTrackerRootComponentsAndComponentOf(t *testing.T) {
	// Figure 1b skeleton.
	g := loopy(6,
		[2]int{0, 1}, [2]int{1, 0},
		[2]int{2, 3}, [2]int{3, 4}, [2]int{4, 2},
		[2]int{4, 5})
	tr := NewTracker(6, false)
	tr.Observe(1, g)
	roots := tr.RootComponents()
	if len(roots) != 2 {
		t.Fatalf("roots = %v", roots)
	}
	if !tr.ComponentOf(2).Equal(graph.NodeSetOf(2, 3, 4)) {
		t.Fatalf("ComponentOf(p3) = %v", tr.ComponentOf(2))
	}
	if !tr.ComponentOf(5).Equal(graph.NodeSetOf(5)) {
		t.Fatalf("ComponentOf(p6) = %v", tr.ComponentOf(5))
	}
}

func TestComponentMonotone(t *testing.T) {
	// Paper eq. (5): C^r_p ⊇ C^(r+1)_p.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		tr := NewTracker(6, false)
		prev := make([]graph.NodeSet, 6)
		for p := range prev {
			prev[p] = graph.FullNodeSet(6)
		}
		for r := 1; r <= 10; r++ {
			g := graph.RandomDigraph(6, 0.7, rng)
			tr.Observe(r, g)
			for p := 0; p < 6; p++ {
				cur := tr.ComponentOf(p)
				if !cur.SubsetOf(prev[p]) {
					t.Fatalf("component of p%d grew at round %d", p+1, r)
				}
				prev[p] = cur
			}
		}
	}
}

// TestTrackerMatchesHOAndRRFD pins the paper's Section II bridge to the
// HO and RRFD models on the tracker itself. With HO(p, r) the in-neighbors
// of p in G^r and D(p, r) its complement, eq. (7) says
// PT(p, r) = ⋂_{r'≤r} HO(p, r') = Π \ ⋃_{r'≤r} D(p, r'), and eq. (6)
// says (q → p) ∈ E^∩r ⇔ ∀r' ≤ r: q ∈ HO(p, r').
func TestTrackerMatchesHOAndRRFD(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(9)
		tr := NewTracker(n, false)
		hoInt := make([]graph.NodeSet, n)
		dUnion := make([]graph.NodeSet, n)
		for p := range hoInt {
			hoInt[p] = graph.FullNodeSet(n)
			dUnion[p] = graph.NewNodeSet(n)
		}
		for r := 1; r <= 12; r++ {
			g := graph.RandomDigraph(n, 0.3+0.6*rng.Float64(), rng)
			tr.Observe(r, g)
			skel := tr.Skeleton()
			for p := 0; p < n; p++ {
				ho := g.InNeighbors(p)
				d := graph.FullNodeSet(n)
				d.SubtractWith(ho)
				hoInt[p].IntersectWith(ho)
				dUnion[p].UnionWith(d)
				fromD := graph.FullNodeSet(n)
				fromD.SubtractWith(dUnion[p])
				if pt := tr.PT(p); !pt.Equal(hoInt[p]) || !pt.Equal(fromD) {
					t.Fatalf("trial %d round %d: PT(p%d) = %v, ⋂HO = %v, Π\\⋃D = %v",
						trial, r, p+1, pt, hoInt[p], fromD)
				}
				for q := 0; q < n; q++ {
					if skel.HasEdge(q, p) != hoInt[p].Has(q) {
						t.Fatalf("trial %d round %d: (p%d→p%d) ∈ E^∩r is %v, q ∈ every HO(p, r') is %v",
							trial, r, q+1, p+1, skel.HasEdge(q, p), hoInt[p].Has(q))
					}
				}
			}
		}
	}
}
