package graph

import (
	"math/rand"
	"runtime"
	"testing"
)

// Allocation-regression tests for the in-place graph kernels: once their
// scratch is warm, the hot-path operations must not allocate. See
// DESIGN.md §4.

func TestPruneUnreachableToInPlaceAllocs(t *testing.T) {
	// 128 exercises the multi-word path: steady state must stay 0-alloc
	// on both sides of the one-word boundary.
	for _, n := range []int{8, 32, 128} {
		rng := rand.New(rand.NewSource(21))
		g := NewLabeled(n)
		work := NewLabeled(n)
		for i := 0; i < 3*n; i++ {
			g.MergeEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(9))
		}
		var s ReachScratch
		work.CopyFrom(g)
		work.PruneUnreachableToInPlace(0, &s) // warm the scratch
		avg := testing.AllocsPerRun(50, func() {
			work.CopyFrom(g)
			work.PruneUnreachableToInPlace(0, &s)
		})
		if avg != 0 {
			t.Errorf("n=%d: %v allocs per prune, want 0", n, avg)
		}
	}
}

func TestStronglyConnectedIntoAllocs(t *testing.T) {
	for _, n := range []int{8, 32, 128} {
		g := NewLabeled(n)
		for v := 0; v < n; v++ {
			g.MergeEdge(v, (v+1)%n, 1) // a directed cycle: strongly connected
		}
		var s ReachScratch
		if !g.StronglyConnectedInto(&s) {
			t.Fatalf("n=%d: cycle not strongly connected", n)
		}
		avg := testing.AllocsPerRun(50, func() {
			if !g.StronglyConnectedInto(&s) {
				t.Fatal("cycle not strongly connected")
			}
		})
		if avg != 0 {
			t.Errorf("n=%d: %v allocs per connectivity check, want 0", n, avg)
		}
	}
}

func TestDigraphIntersectWithAllocs(t *testing.T) {
	for _, n := range []int{32, 128} {
		rng := rand.New(rand.NewSource(22))
		g := RandomDigraph(n, 0.3, rng)
		h := RandomDigraph(n, 0.3, rng)
		work := g.Clone()
		work.IntersectWith(h)
		avg := testing.AllocsPerRun(50, func() {
			// Steady state: work already is g ∩ h, so re-intersecting with h
			// removes nothing; this is exactly the skeleton tracker's
			// post-stabilization regime.
			if work.IntersectWith(h) {
				t.Fatal("stable intersection changed")
			}
		})
		if avg != 0 {
			t.Errorf("n=%d: %v allocs per stable IntersectWith, want 0", n, avg)
		}
	}
}

func TestSCCScratchReuseAllocs(t *testing.T) {
	// With a warm scratch, Tarjan allocates only the component sets (one
	// NodeSet per component: 2 allocs each — header slice + words) and
	// the comps slice itself.
	n := 64
	g := NewDigraph(n)
	for v := 0; v < n; v++ {
		g.AddNode(v)
		g.AddEdge(v, (v+1)%n)
	}
	var s sccScratch
	comps := s.SCC(g)
	if len(comps) != 1 {
		t.Fatalf("cycle has %d components, want 1", len(comps))
	}
	avg := testing.AllocsPerRun(50, func() {
		if len(s.SCC(g)) != 1 {
			t.Fatal("component count changed")
		}
	})
	// One component: its NodeSet (struct is returned in a slice — the
	// words allocation) plus the comps slice. Allow a small constant,
	// reject anything scaling with n (the pre-scratch version allocated
	// 4+ slices of length n plus n Elems() slices).
	if avg > 4 {
		t.Errorf("%v allocs per SCC with warm scratch, want <= 4", avg)
	}
}

func TestNewDigraphAllocs(t *testing.T) {
	// Arena construction: struct + NodeSet backing + one flat word arena.
	// The bound is width-independent — multi-word universes cost the same
	// three allocations, just with longer slices.
	for _, n := range []int{64, 128, 192} {
		avg := testing.AllocsPerRun(50, func() {
			if NewDigraph(n).N() != n {
				t.Fatal("bad universe")
			}
		})
		if avg > 3 {
			t.Errorf("NewDigraph(%d) costs %v allocs, want <= 3", n, avg)
		}
	}
}

func TestNewLabeledAllocs(t *testing.T) {
	// Labeled construction: struct + set headers + word arena + one
	// buffer for the edge list and its merge spare, at any width.
	for _, n := range []int{64, 128, 192} {
		avg := testing.AllocsPerRun(50, func() {
			if NewLabeled(n).N() != n {
				t.Fatal("bad universe")
			}
		})
		if avg > 4 {
			t.Errorf("NewLabeled(%d) costs %v allocs, want <= 4", n, avg)
		}
	}
}

func TestNewLabeledBytes(t *testing.T) {
	// An empty G_p is the bitset arena ((2n+1)·⌈n/64⌉ words), the set
	// headers and 4n edge slots: under one byte per ordered pair, where
	// an n×n label matrix alone would be four.
	for _, n := range []int{256, 1024} {
		const reps = 10
		keep := make([]*Labeled, reps)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = NewLabeled(n)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / reps; per >= uint64(n*n) {
			t.Errorf("NewLabeled(%d) allocates %d bytes, want < n² = %d", n, per, n*n)
		}
		runtime.KeepAlive(keep)
	}
}

func TestLabeledMergePurgeAllocs(t *testing.T) {
	// The per-round rebuild kernels (MergeFrom, PurgeOlderThan, Reset)
	// must allocate nothing at any width once the graphs exist.
	for _, n := range []int{32, 128} {
		rng := rand.New(rand.NewSource(23))
		src := NewLabeled(n)
		for i := 0; i < 4*n; i++ {
			src.MergeEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(9))
		}
		dst := NewLabeled(n)
		avg := testing.AllocsPerRun(50, func() {
			dst.Reset()
			dst.MergeFrom(src)
			dst.PurgeOlderThan(5)
		})
		if avg != 0 {
			t.Errorf("n=%d: %v allocs per merge/purge/reset cycle, want 0", n, avg)
		}
	}
}
