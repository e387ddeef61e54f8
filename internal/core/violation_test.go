package core

import (
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/predicate"
)

// TestLemma15CounterexamplePaperGuard reproduces, deterministically, the
// violation of the paper's Lemma 15/Theorem 16 under the published
// line-28 guard (r >= n): the ConsensusViolation run satisfies Psrcs(1)
// yet two distinct values are decided. See adversary.ConsensusViolation
// for the full construction and EXPERIMENTS.md §E10.
func TestLemma15CounterexamplePaperGuard(t *testing.T) {
	adv := adversary.ConsensusViolation()
	props := adversary.ConsensusViolationProposals()

	skel := adv.StableSkeleton()
	if got := predicate.MinK(skel); got != 1 {
		t.Fatalf("MinK = %d, counterexample requires Psrcs(1)", got)
	}

	// Both interpretation variants exhibit the violation (MergeOwnGraph
	// only shifts p4's singleton-connectivity round from 4 to 5, because
	// it retains the stale in-edge (p1 1->p4) until the purge).
	for _, opts := range []Options{{}, {MergeOwnGraph: true}} {
		h := run(t, adv, props, 20, opts)
		vals := h.distinctDecisions(t)
		if len(vals) != 2 || !vals[1] || !vals[4] {
			t.Fatalf("mergeOwn=%v: decisions = %v, expected the documented "+
				"violation {1, 4}", opts.MergeOwnGraph, vals)
		}
	}

	// Exact mechanism, pinned for the paper-faithful default: p1, p2, p3
	// decide 1 in round n = 4 via connectivity through the stale edge;
	// p4 decides its frozen estimate 4 in the same round as a singleton.
	h := run(t, adv, props, 20, Options{})
	for p := 0; p <= 2; p++ {
		v, r := h.procs[p].Decision()
		if v != 1 || r != 4 || h.procs[p].DecidedVia() != viaConnectivity {
			t.Fatalf("p%d decided (%d, %d, %v), want (1, 4, connectivity)",
				p+1, v, r, h.procs[p].DecidedVia())
		}
	}
	if v, r := h.procs[3].Decision(); v != 4 || r != 4 {
		t.Fatalf("p4 decided (%d, %d), want (4, 4)", v, r)
	}
	// The stale edge is present in p1's round-4 approximation and purged
	// in round 5.
	if h.approxAt(4, 0).Label(0, 3) != 1 {
		t.Fatal("stale edge (p1 -1-> p4) missing from p1's round-4 graph")
	}
	if h.approxAt(5, 0).HasEdge(0, 3) {
		t.Fatal("stale edge survived the round-5 purge")
	}
}

// TestLemma15RepairConservativeGuard verifies the repair: with the
// line-28 guard raised to r >= 2n-1 the stale edges are purged before any
// decision may happen, p4 decides at round 7, everyone else adopts its
// value, and consensus holds — the paper's own proof becomes sound for
// this guard.
func TestLemma15RepairConservativeGuard(t *testing.T) {
	adv := adversary.ConsensusViolation()
	props := adversary.ConsensusViolationProposals()
	h := run(t, adv, props, 20, Options{ConservativeDecide: true})
	vals := h.distinctDecisions(t)
	if len(vals) != 1 || !vals[4] {
		t.Fatalf("repaired run decided %v, want consensus on 4", vals)
	}
	if v, r := h.procs[3].Decision(); v != 4 || r != 7 || h.procs[3].DecidedVia() != viaConnectivity {
		t.Fatalf("p4 decided (%d, %d), want (4, 7) via connectivity", v, r)
	}
	for p := 0; p <= 2; p++ {
		v, r := h.procs[p].Decision()
		if v != 4 || r != 8 || h.procs[p].DecidedVia() != viaMessage {
			t.Fatalf("p%d decided (%d, %d, %v), want (4, 8, message)",
				p+1, v, r, h.procs[p].DecidedVia())
		}
	}
}

// TestConservativeDecideKAgreementBattery asserts the repaired guard
// respects the MinK bound across a randomized battery that includes the
// regimes where the published guard is vulnerable (late stabilization,
// universal sources).
func TestConservativeDecideKAgreementBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8)
		var adv = adversary.RandomSingleSource(n, rng.Intn(2*n), 0.3, 0.3, rng)
		if trial%2 == 0 {
			adv = adversary.RandomSources(n, 1+rng.Intn(3), rng.Intn(2*n), 0.3, rng)
		}
		h := run(t, adv, seqProposals(n), 8*n, Options{ConservativeDecide: true})
		stable := h.tracker.At(h.rounds)
		vals := h.distinctDecisions(t)
		if got, k := len(vals), predicate.MinK(stable); got > k {
			t.Fatalf("trial %d (n=%d): %d decisions > MinK %d under repaired guard",
				trial, n, got, k)
		}
		checkValidity(t, h, seqProposals(n))
		checkIrrevocability(t, h)
	}
}

// TestPaperGuardViolationRate quantifies how often the published guard
// exceeds MinK on the vulnerable family (randomized single-source runs
// with noise): the rate must be nonzero (the counterexample family is
// real) — this is the statistic EXPERIMENTS.md §E10 reports.
func TestPaperGuardViolationRate(t *testing.T) {
	rng := rand.New(rand.NewSource(515151))
	violations := 0
	const trials = 80
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(5)
		adv := adversary.RandomSingleSource(n, 1+rng.Intn(n), 0.3, 0.3, rng)
		h := run(t, adv, seqProposals(n), 8*n, Options{})
		stable := h.tracker.At(h.rounds)
		if len(h.distinctDecisions(t)) > predicate.MinK(stable) {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("expected the published guard to violate MinK on this family")
	}
	t.Logf("published guard violated MinK in %d/%d runs", violations, trials)
}
