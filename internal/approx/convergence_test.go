package approx_test

// End-to-end convergence tests: run the registered approx family
// through the full sim pipeline (the same execution path E-suite
// experiments and ksetd sessions use) and check the family's own
// whole-run oracles plus the convergence claims directly.

import (
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/approx"
	"kset/internal/sim"
)

// executeApprox runs one approx spec and fails the test on any oracle
// violation.
func executeApprox(t *testing.T, spec sim.Spec) *sim.Outcome {
	t.Helper()
	spec.Algorithm = algo.Approx
	out, err := sim.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.CheckAlgorithm() {
		t.Errorf("oracle violation: %s", v)
	}
	return out
}

// requireAdjacent asserts every decided pair is within distance 1 on g.
func requireAdjacent(t *testing.T, g approx.Graph, out *sim.Outcome) {
	t.Helper()
	for i := 0; i < out.N; i++ {
		for j := i + 1; j < out.N; j++ {
			if !out.Decided[i] || !out.Decided[j] {
				t.Fatalf("p%d/p%d undecided", i+1, j+1)
			}
			if d := approx.Dist(g, out.Decisions[i], out.Decisions[j]); d > 1 {
				t.Errorf("p%d=%d and p%d=%d at distance %d on %s-%d",
					i+1, out.Decisions[i], j+1, out.Decisions[j], d, g.Shape, g.V)
			}
		}
	}
}

func TestPathConvergenceAcrossSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(6)
		adv := adversary.RandomSources(n, 1, 1+rng.Intn(2*n), 0.3, rng)
		props := make([]int64, n)
		for i := range props {
			props[i] = int64(rng.Intn(n + 1))
		}
		out := executeApprox(t, sim.Spec{Adversary: adv, Proposals: props})
		if t.Failed() {
			t.Fatalf("trial %d: n=%d proposals=%v", trial, n, props)
		}
		requireAdjacent(t, approx.Graph{Shape: approx.Path, V: n + 1}, out)
		// Exact termination: everyone decides at precisely DecideRound.
		opts := out.Run.Params.(approx.Options)
		for i := 0; i < out.N; i++ {
			if out.DecideRounds[i] != opts.DecideRound {
				t.Fatalf("trial %d: p%d decided in round %d, want %d",
					trial, i+1, out.DecideRounds[i], opts.DecideRound)
			}
		}
	}
}

func TestPathValidityHull(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(5)
		lo := int64(rng.Intn(n))
		hi := lo + int64(rng.Intn(n+1-int(lo)))
		props := make([]int64, n)
		for i := range props {
			props[i] = lo + rng.Int63n(hi-lo+1)
		}
		adv := adversary.RandomSources(n, 1+rng.Intn(3), rng.Intn(n), 0.25, rng)
		out := executeApprox(t, sim.Spec{Adversary: adv, Proposals: props})
		for i := 0; i < out.N; i++ {
			if d := out.Decisions[i]; d < lo || d > hi {
				t.Errorf("trial %d: p%d decided %d outside input hull [%d,%d]", trial, i+1, d, lo, hi)
			}
		}
	}
}

func TestCycleNarrowArcConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(5)
		v := 6 + rng.Intn(10)
		// A narrow arc of span < V/2 that wraps around vertex 0.
		span := rng.Intn(v/2 - 1)
		start := int64(v - 1 - rng.Intn(span+1))
		props := make([]int64, n)
		for i := range props {
			props[i] = (start + rng.Int63n(int64(span)+1)) % int64(v)
		}
		adv := adversary.RandomSources(n, 1, rng.Intn(n), 0.3, rng)
		out := executeApprox(t, sim.Spec{
			Adversary: adv,
			Proposals: props,
			Params:    approx.Options{Graph: approx.Graph{Shape: approx.Cycle, V: v}},
		})
		if t.Failed() {
			t.Fatalf("trial %d: n=%d V=%d proposals=%v", trial, n, v, props)
		}
		g := approx.Graph{Shape: approx.Cycle, V: v}
		requireAdjacent(t, g, out)
		start0, length := approx.Span(g, props)
		for i := 0; i < out.N; i++ {
			if !approx.InSpan(g, start0, length, out.Decisions[i]) {
				t.Errorf("trial %d: p%d decided %d outside input arc [%d,+%d] on C%d",
					trial, i+1, out.Decisions[i], start0, length, v)
			}
		}
	}
}

// TestCycleWideSpanTerminates covers the regime approximate agreement
// on cycles is unsolvable in: inputs spread over more than half the
// cycle. The implementation promises termination and vertex-range
// validity only — the oracles must stay silent rather than report
// phantom agreement violations.
func TestCycleWideSpanTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(4)
		v := 8
		props := make([]int64, n)
		for i := range props {
			props[i] = rng.Int63n(int64(v)) // spread over the whole cycle
		}
		adv := adversary.RandomSources(n, 1, rng.Intn(n), 0.3, rng)
		out := executeApprox(t, sim.Spec{
			Adversary: adv,
			Proposals: props,
			Params:    approx.Options{Graph: approx.Graph{Shape: approx.Cycle, V: v}},
		})
		for i := 0; i < out.N; i++ {
			if !out.Decided[i] {
				t.Fatalf("trial %d: p%d undecided", trial, i+1)
			}
			if d := out.Decisions[i]; d < 0 || d >= int64(v) {
				t.Errorf("trial %d: p%d decided %d, not a vertex of C%d", trial, i+1, d, v)
			}
		}
	}
}
