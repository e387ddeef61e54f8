package adversary

import (
	"testing"

	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/rounds"
	"kset/internal/skeleton"
)

var _ rounds.Adversary = (*Mobile)(nil)
var _ rounds.Adversary = (*SettledMobile)(nil)
var _ rounds.Stabilizer = (*SettledMobile)(nil)

func TestMobileSilencesExactlyF(t *testing.T) {
	m := NewMobile(6, 2, 0, 99)
	for r := 1; r <= 10; r++ {
		g := m.Graph(r)
		silent := 0
		for p := 0; p < 6; p++ {
			if g.OutNeighbors(p).Equal(graph.NodeSetOf(p)) {
				silent++
			}
		}
		if silent != 2 {
			t.Fatalf("round %d: %d silent, want 2", r, silent)
		}
		if !g.HasEdge(m.SilentAt(r).Min(), m.SilentAt(r).Min()) {
			t.Fatal("silent process lost its self-loop")
		}
	}
}

func TestMobileDeterministicPerRound(t *testing.T) {
	m := NewMobile(5, 1, 0, 7)
	for r := 1; r <= 6; r++ {
		if !m.Graph(r).Equal(m.Graph(r)) {
			t.Fatalf("round %d not deterministic", r)
		}
	}
}

func TestMobileSilenceMoves(t *testing.T) {
	m := NewMobile(8, 2, 0, 3)
	first := m.SilentAt(1)
	moved := false
	for r := 2; r <= 12; r++ {
		if !m.SilentAt(r).Equal(first) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("silent set never moved across 12 rounds")
	}
}

func TestMobileForeverCollapsesSkeleton(t *testing.T) {
	// "Time is not a healer": with moving silence, the skeleton
	// eventually loses every non-self edge (each process is silenced
	// infinitely often with probability 1; 60 rounds suffice for n=5
	// with this seed).
	m := NewMobile(5, 1, 0, 11)
	tr := skeleton.NewTracker(5, false)
	for r := 1; r <= 60; r++ {
		tr.Observe(r, m.Graph(r))
	}
	if got := tr.Skeleton().NumEdges(); got != 5 {
		t.Fatalf("skeleton has %d edges, want 5 self-loops only", got)
	}
	if k := predicate.MinK(tr.Skeleton()); k != 5 {
		t.Fatalf("MinK = %d, want n (no agreement below n possible)", k)
	}
}

func TestMobileSettledStabilizes(t *testing.T) {
	m := NewMobile(6, 2, 5, 13).Settled()
	if m.StabilizationRound() != 5 {
		t.Fatalf("StabilizationRound = %d", m.StabilizationRound())
	}
	for r := 5; r <= 12; r++ {
		if !m.Graph(r).Equal(m.Graph(5)) {
			t.Fatalf("graph changed after settling at round %d", r)
		}
	}
	// The tracker-computed skeleton equals the adversary's own.
	tr := skeleton.NewTracker(6, false)
	for r := 1; r <= 5; r++ {
		tr.Observe(r, m.Graph(r))
	}
	if !tr.Skeleton().Equal(m.StableSkeleton()) {
		t.Fatal("StableSkeleton mismatch")
	}
}

func TestMobileSettledNeverSilencedKernel(t *testing.T) {
	// Any process never silenced in rounds 1..settle is a universal
	// source of the stable skeleton (it reached everyone every round).
	m := NewMobile(7, 2, 4, 17).Settled()
	everSilent := graph.NewNodeSet(7)
	for r := 1; r <= 4; r++ {
		everSilent.UnionWith(m.SilentAt(r))
	}
	skel := m.StableSkeleton()
	for v := 0; v < 7; v++ {
		if !everSilent.Has(v) && skel.OutDegree(v) != 7 {
			t.Fatalf("never-silent p%d is not heard by everyone in %v", v+1, skel)
		}
	}
}

func TestMobileValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMobile(4, -1, 0, 1) },
		func() { NewMobile(4, 5, 0, 1) },
		func() { NewMobile(4, 1, 0, 1).Settled() },
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

func TestMobileRoundRobinSweeps(t *testing.T) {
	n, f := 8, 2
	m := NewMobileRoundRobin(n, f, 0, 0)
	covered := graph.NewNodeSet(n)
	for r := 1; r <= (n+f-1)/f; r++ {
		s := m.SilentAt(r)
		if s.Len() != f {
			t.Fatalf("round %d silences %d, want %d", r, s.Len(), f)
		}
		covered.UnionWith(s)
	}
	if !covered.Equal(graph.FullNodeSet(n)) {
		t.Fatalf("round-robin did not sweep everyone: %v", covered)
	}
	// Deterministic: same round, same set.
	if !m.SilentAt(3).Equal(m.SilentAt(3)) {
		t.Fatal("round-robin not deterministic")
	}
}

func TestMobileRoundRobinSettles(t *testing.T) {
	m := NewMobileRoundRobin(6, 1, 4, 0).Settled()
	want := m.SilentAt(4)
	for r := 4; r <= 10; r++ {
		if !m.SilentAt(r).Equal(want) {
			t.Fatalf("silent set changed after settling (round %d)", r)
		}
	}
}
