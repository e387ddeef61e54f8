package core

import (
	"testing"

	"kset/internal/adversary"
)

// figure1History runs Algorithm 1 on the reconstructed Figure 1 run.
func figure1History(t *testing.T) *runHistory {
	t.Helper()
	return run(t, adversary.Figure1(), seqProposals(6), 12, Options{})
}

// TestFigure1ApproximationLabels reproduces the label multisets of the
// paper's Figure 1c-1h (p6's approximations G¹p6..G⁶p6). Rounds 1-4 match
// the figure exactly. In rounds 5 and 6 a mechanical execution retains
// one stale edge (p5 -1-> p4) that the hand-drawn figure omits; it is
// purged by line 24 in round 7 (see DESIGN.md §3 and EXPERIMENTS.md §E1).
func TestFigure1ApproximationLabels(t *testing.T) {
	h := figure1History(t)
	want := adversary.Figure1LabelMultisets()
	const p6 = 5
	for r := 1; r <= 4; r++ {
		got := h.approxAt(r, p6).LabelMultiset()
		if !equalInts(got, want[r-1]) {
			t.Errorf("G%d_p6 labels = %v, figure says %v", r, got, want[r-1])
		}
	}
	for r := 5; r <= 6; r++ {
		got := h.approxAt(r, p6)
		wantLabels := append(append([]int{}, want[r-1]...), 1) // + stale (p5 1->p4)
		if !equalInts(got.LabelMultiset(), wantLabels) {
			t.Errorf("G%d_p6 labels = %v, want figure %v plus one stale 1",
				r, got.LabelMultiset(), want[r-1])
		}
		if got.Label(4, 3) != 1 {
			t.Errorf("round %d: stale edge should be exactly (p5 -1-> p4), got label %d",
				r, got.Label(4, 3))
		}
	}
}

// TestFigure1ApproximationEdges pins down the exact edges (not just label
// multisets) of p6's early approximations, matching the reconstruction
// derivation in DESIGN.md.
func TestFigure1ApproximationEdges(t *testing.T) {
	h := figure1History(t)
	const p6 = 5
	type e struct{ u, v, l int }
	wantEdges := map[int][]e{
		1: {{4, 5, 1}, {1, 5, 1}},                       // p5-1->p6, p2-1->p6
		2: {{4, 5, 2}, {1, 5, 2}, {3, 4, 1}, {0, 1, 1}}, // + p4-1->p5, p1-1->p2
		3: {{4, 5, 3}, {3, 4, 2}, {2, 3, 1}, {4, 3, 1}}, // chain + stale p5-1->p4
		4: {{4, 5, 4}, {3, 4, 3}, {2, 3, 2}, {4, 3, 2}, {4, 2, 1}, {3, 2, 1}, {1, 2, 1}},
		5: {{4, 5, 5}, {3, 4, 4}, {2, 3, 3}, {4, 2, 2}, {3, 2, 2}, {4, 3, 1}},
		6: {{4, 5, 6}, {3, 4, 5}, {2, 3, 4}, {4, 2, 3}, {4, 3, 1}},
	}
	for r := 1; r <= 6; r++ {
		g := h.approxAt(r, p6)
		for _, ed := range wantEdges[r] {
			if got := g.Label(ed.u, ed.v); got != ed.l {
				t.Errorf("round %d: label(p%d->p%d) = %d, want %d",
					r, ed.u+1, ed.v+1, got, ed.l)
			}
		}
		// No unexpected non-self-loop edges.
		count := 0
		g.ForEachEdge(func(u, v, _ int) {
			if u != v {
				count++
			}
		})
		if count != len(wantEdges[r]) {
			t.Errorf("round %d: %d non-self edges, want %d: %v",
				r, count, len(wantEdges[r]), g)
		}
	}
}

// TestFigure1SteadyState verifies that from round 8 on, p6's
// approximation is exactly the ancestor chain of the stable skeleton with
// labels r, r-1, r-2, r-3 — the state Figure 1h depicts.
func TestFigure1SteadyState(t *testing.T) {
	h := figure1History(t)
	const p6 = 5
	for r := 10; r <= 12; r++ {
		g := h.approxAt(r, p6)
		want := []struct{ u, v, l int }{
			{4, 5, r},     // p5 -r-> p6
			{3, 4, r - 1}, // p4 -(r-1)-> p5
			{2, 3, r - 2}, // p3 -(r-2)-> p4
			{4, 2, r - 3}, // p5 -(r-3)-> p3
		}
		for _, ed := range want {
			if got := g.Label(ed.u, ed.v); got != ed.l {
				t.Fatalf("round %d: label(p%d->p%d) = %d, want %d",
					r, ed.u+1, ed.v+1, got, ed.l)
			}
		}
		if got := g.LabelMultiset(); !equalInts(got, []int{r, r - 1, r - 2, r - 3}) {
			t.Fatalf("round %d labels = %v", r, got)
		}
	}
}

// TestFigure1Decisions pins the complete decision pattern of the run.
func TestFigure1Decisions(t *testing.T) {
	h := figure1History(t)
	// p1, p2 decide min(v1,v2) = 1. The transient round-1 edge p2->p3
	// leaks v2 = 2 into the {p3,p4,p5} component, so it decides 2; p6
	// adopts p5's decision.
	wantVal := []int64{1, 1, 2, 2, 2, 2}
	// p5's connectivity check stays blocked through round 6 by the stale
	// (p2 1->p3) edge in its approximation; in round 7 it adopts the
	// decide message of p4 (its timely neighbor, decided in round 6)
	// before the now-unblocked connectivity rule could fire.
	wantVia := []Via{viaConnectivity, viaConnectivity, viaConnectivity,
		viaConnectivity, viaMessage, viaMessage}
	// p1..p4 decide at round 6 (n=6, graphs connected from the start);
	// p6 hears p5's decide message in round 8.
	wantRound := []int{6, 6, 6, 6, 7, 8}
	for i, p := range h.procs {
		if !p.Decided() {
			t.Fatalf("p%d undecided", i+1)
		}
		v, r := p.Decision()
		if v != wantVal[i] || r != wantRound[i] || p.DecidedVia() != wantVia[i] {
			t.Errorf("p%d decided (%d, round %d, via %v), want (%d, %d, %v)",
				i+1, v, r, p.DecidedVia(), wantVal[i], wantRound[i], wantVia[i])
		}
	}
	if vals := h.distinctDecisions(t); len(vals) != 2 {
		t.Fatalf("distinct decisions = %v, want 2 <= k=3", vals)
	}
}

// TestFigure1KAgreement: the run satisfies Psrcs(3); at most 3 values.
func TestFigure1KAgreement(t *testing.T) {
	h := figure1History(t)
	checkValidity(t, h, seqProposals(6))
	checkIrrevocability(t, h)
	checkEstimateMonotone(t, h)
	if vals := h.distinctDecisions(t); len(vals) > 3 {
		t.Fatalf("%d distinct decisions violate 3-agreement", len(vals))
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
