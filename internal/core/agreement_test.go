package core

import (
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/rounds"
)

// TestTheorem2LowerBoundExactlyK — in the paper's Theorem 2 run, the
// processes of L and the source s can only learn their own values, so
// with pairwise distinct inputs exactly k distinct decisions emerge:
// Psrcs(k) cannot solve (k-1)-set agreement, and Algorithm 1 realizes
// exactly that bound (tightness).
func TestTheorem2LowerBoundExactlyK(t *testing.T) {
	for n := 4; n <= 9; n++ {
		for k := 2; k < n; k++ {
			adv := adversary.LowerBound(n, k)
			h := run(t, adv, seqProposals(n), 3*n+5, Options{})
			vals := h.distinctDecisions(t)
			if len(vals) != k {
				t.Fatalf("n=%d k=%d: %d distinct decisions, want exactly %d (%v)",
					n, k, len(vals), k, vals)
			}
			// L members and s decide their own values.
			adversary.LowerBoundIsolated(k).ForEach(func(p int) {
				v, _ := h.procs[p].Decision()
				if v != int64(p+1) {
					t.Fatalf("isolated p%d decided %d, want own value %d", p+1, v, p+1)
				}
			})
			s := adversary.LowerBoundSource(k)
			if v, _ := h.procs[s].Decision(); v != int64(s+1) {
				t.Fatalf("source s=p%d decided %d, want own value", s+1, v)
			}
			// Everyone else adopts s's value (minimum of {p, s} chains).
			for p := s + 1; p < n; p++ {
				if v, _ := h.procs[p].Decision(); v != int64(s+1) {
					t.Fatalf("downstream p%d decided %d, want s's value %d", p+1, v, s+1)
				}
			}
		}
	}
}

// TestEventualPsrcsIsTooWeak — the Section III argument: with an
// isolation prefix of at least n rounds, every approximation graph is the
// singleton {p}, trivially strongly connected, so every process decides
// its own value in round n: n distinct decisions even though the run
// eventually satisfies any Psrcs(k).
func TestEventualPsrcsIsTooWeak(t *testing.T) {
	for n := 2; n <= 8; n++ {
		adv := adversary.Eventual(adversary.Complete(n), n)
		h := run(t, adv, seqProposals(n), 3*n, Options{})
		vals := h.distinctDecisions(t)
		if len(vals) != n {
			t.Fatalf("n=%d: %d distinct decisions, want all n", n, len(vals))
		}
		for p := 0; p < n; p++ {
			v, r := h.procs[p].Decision()
			if v != int64(p+1) || r != n {
				t.Fatalf("p%d decided (%d, round %d), want own value at round n=%d",
					p+1, v, r, n)
			}
		}
	}
}

// TestEventualShortPrefixHarmless — an isolation prefix shorter than n
// does not trigger the premature singleton decision: the skeleton's
// guarantees still bound decisions by MinK.
func TestEventualShortPrefixHarmless(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(4)
		base := adversary.RandomSources(n, 1+rng.Intn(3), 0, 0, rng)
		adv := adversary.Eventual(base, rng.Intn(n-1))
		h := run(t, adv, seqProposals(n), 6*n, Options{})
		stable := h.tracker.At(h.rounds)
		if got, k := len(h.distinctDecisions(t)), predicate.MinK(stable); got > k {
			t.Fatalf("%d decisions > MinK %d with short prefix", got, k)
		}
	}
}

// TestConsensusInWellBehavedRuns — Section V: "the algorithm actually
// solves consensus in sufficiently well-behaved runs". The precise
// condition is Psrcs(1), i.e. MinK = 1 (a universal 2-source). Under the
// published line-28 guard this is NOT always achieved (see
// TestLemma15CounterexamplePaperGuard — seed 78 here reproduces a random
// instance of the same flaw); the repaired guard r >= 2n-1 restores the
// guarantee, which is what this test asserts.
func TestConsensusInWellBehavedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		adv := adversary.RandomSingleSource(n, rng.Intn(4), 0.3, 0.3, rng)
		h := run(t, adv, seqProposals(n), 6*n+8, Options{ConservativeDecide: true})
		if vals := h.distinctDecisions(t); len(vals) != 1 {
			t.Fatalf("Psrcs(1) run produced %d values: %v", len(vals), vals)
		}
	}
}

// TestSingleRootIsNotEnoughForConsensus — a sharper reading of Section V
// that the reproduction pins down: one root component does NOT guarantee
// consensus. Noisy prefixes can let a downstream process assemble a
// strongly connected approximation out of stale prefix edges and decide
// a second value before any decide message reaches it. The theorem bound
// (distinct <= MinK) always holds; this test documents a concrete
// 2-value single-root run and checks the bound across a random battery.
func TestSingleRootIsNotEnoughForConsensus(t *testing.T) {
	rng := rand.New(rand.NewSource(20110229))
	multiValue := 0
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(8)
		adv := adversary.RandomSources(n, 1, rng.Intn(n), 0.2, rng)
		h := run(t, adv, seqProposals(n), 6*n+8, Options{})
		stable := h.tracker.At(h.rounds)
		vals := h.distinctDecisions(t)
		if len(vals) > predicate.MinK(stable) {
			t.Fatalf("distinct=%d > MinK=%d: theorem violated", len(vals), predicate.MinK(stable))
		}
		if len(vals) > 1 {
			multiValue++
		}
	}
	if multiValue == 0 {
		t.Fatal("expected at least one multi-value single-root run in the battery " +
			"(the phenomenon this test documents)")
	}
}

// TestCompleteGraphConsensusOnMinimum — fully synchronous runs decide the
// global minimum at round n.
func TestCompleteGraphConsensusOnMinimum(t *testing.T) {
	for n := 1; n <= 8; n++ {
		h := run(t, adversary.Complete(n), seqProposals(n), n+2, Options{})
		for p := 0; p < n; p++ {
			v, r := h.procs[p].Decision()
			if v != 1 || r != n {
				t.Fatalf("n=%d: p%d decided (%d, %d), want (1, %d)", n, p+1, v, r, n)
			}
		}
	}
}

// TestIsolationForeverDecidesOwnValues — the Ptrue system: all processes
// isolated forever, each decides its own value at round n (and k-set
// agreement for k=n is trivially satisfied; no smaller k is admissible).
func TestIsolationForeverDecidesOwnValues(t *testing.T) {
	n := 5
	h := run(t, adversary.Isolation(n), seqProposals(n), 2*n, Options{})
	for p := 0; p < n; p++ {
		v, r := h.procs[p].Decision()
		if v != int64(p+1) || r != n {
			t.Fatalf("p%d decided (%d, %d), want own value at round n", p+1, v, r)
		}
	}
}

// TestSingleProcess — n=1 is the degenerate consensus: decide own value
// in round 1.
func TestSingleProcess(t *testing.T) {
	h := run(t, adversary.Complete(1), []int64{42}, 3, Options{})
	v, r := h.procs[0].Decision()
	if v != 42 || r != 1 {
		t.Fatalf("decision (%d, %d), want (42, 1)", v, r)
	}
	if h.procs[0].DecidedVia() != viaConnectivity {
		t.Fatal("single process should decide via connectivity")
	}
}

// TestPartitionedConsensusPerBlock — each partition reaches internal
// consensus on its block minimum (the motivating partitionable-system
// scenario).
func TestPartitionedConsensusPerBlock(t *testing.T) {
	n := 9
	blocks := adversary.EvenPartition(n, 3)
	adv := adversary.Partition(n, blocks)
	h := run(t, adv, seqProposals(n), 2*n, Options{})
	for _, block := range blocks {
		min := int64(block[0] + 1)
		for _, p := range block {
			if int64(p+1) < min {
				min = int64(p + 1)
			}
		}
		for _, p := range block {
			v, _ := h.procs[p].Decision()
			if v != min {
				t.Fatalf("p%d decided %d, want block minimum %d", p+1, v, min)
			}
		}
	}
	if vals := h.distinctDecisions(t); len(vals) != 3 {
		t.Fatalf("distinct decisions = %d, want one per partition", len(vals))
	}
}

// TestCrashRunsStillAgree — under pure crash failures the skeleton's
// surviving structure still bounds decisions by MinK; validity and
// termination hold for all (including crashed-but-internally-correct)
// processes.
func TestCrashRunsStillAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(6)
		f := rng.Intn(n)
		adv, _ := adversary.RandomCrashes(n, f, 4, rng)
		h := run(t, adv, seqProposals(n), 8*n, Options{})
		stable := h.tracker.At(h.rounds)
		k := predicate.MinK(stable)
		if got := len(h.distinctDecisions(t)); got > k {
			t.Fatalf("crash run: %d decisions > MinK %d", got, k)
		}
		checkValidity(t, h, seqProposals(n))
	}
}

// TestDecideMessagesDominate — a late-connected process must adopt the
// decide message of its timely neighbor rather than invent a value.
func TestDecideMessagesDominate(t *testing.T) {
	// Chain: p1 is a root (hears only itself), p2 hears p1, p3 hears p2.
	g := graph.NewFullDigraph(3)
	g.AddSelfLoops()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	h := run(t, adversary.Static(g), []int64{7, 5, 9}, 12, Options{})
	// p1 decides its own value 7 at round n=3 (singleton root).
	v, r := h.procs[0].Decision()
	if v != 7 || r != 3 {
		t.Fatalf("p1 decided (%d, %d), want (7, 3)", v, r)
	}
	// p2 and p3: non-root, never strongly connected; they adopt 7 via
	// decide messages at rounds 4 and 5, even though their own estimates
	// (min of upstream values) are already 5.
	for _, tc := range []struct {
		p, round int
	}{{1, 4}, {2, 5}} {
		v, r := h.procs[tc.p].Decision()
		if v != 7 || r != tc.round || h.procs[tc.p].DecidedVia() != viaMessage {
			t.Fatalf("p%d decided (%d, %d, %v), want (7, %d, message)",
				tc.p+1, v, r, h.procs[tc.p].DecidedVia(), tc.round)
		}
	}
}

// TestPurgeWindowValidation — windows below n-1 break Lemma 4 and are
// rejected.
func TestPurgeWindowValidation(t *testing.T) {
	p := NewWithOptions(1, Options{PurgeWindow: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for purge window < n-1")
		}
	}()
	p.Init(0, 5)
}

// TestPurgeWindowNMinus1Works — n-1 is the tightest window that
// preserves Lemma 4; the algorithm must still be correct.
func TestPurgeWindowNMinus1Works(t *testing.T) {
	adv := adversary.Figure1()
	h := run(t, adv, seqProposals(6), 20, Options{PurgeWindow: 5})
	checkValidity(t, h, seqProposals(6))
	if vals := h.distinctDecisions(t); len(vals) > 3 {
		t.Fatalf("purge window n-1 broke 3-agreement: %v", vals)
	}
}

// TestWidePurgeWindowDelaysNothingFatal — a wide window keeps stale edges
// longer but correctness must be unaffected.
func TestWidePurgeWindowDelaysNothingFatal(t *testing.T) {
	adv := adversary.Figure1()
	h := run(t, adv, seqProposals(6), 40, Options{PurgeWindow: 12})
	checkValidity(t, h, seqProposals(6))
	if vals := h.distinctDecisions(t); len(vals) > 3 {
		t.Fatalf("wide purge window broke 3-agreement: %v", vals)
	}
}

// TestStopWhenAllDecided — simulations can stop as soon as everyone
// decided; Figure 1's run finishes in 8 rounds.
func TestStopWhenAllDecided(t *testing.T) {
	res, err := rounds.RunSequential(rounds.Config{
		Adversary:  adversary.Figure1(),
		NewProcess: NewFactory(seqProposals(6), Options{}),
		MaxRounds:  100,
		StopWhen:   rounds.AllDecided,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 8 || !res.Stopped {
		t.Fatalf("Rounds=%d Stopped=%v, want 8/true", res.Rounds, res.Stopped)
	}
}

// TestChurnRunTerminates — under a non-stabilizing churn adversary the
// approximation stays correct (Lemma 6 holds for any run) and decisions
// still respect the core's MinK.
func TestChurnRunTerminates(t *testing.T) {
	core := adversary.Figure1StableSkeleton()
	ch := adversary.NewChurn(core, 0.15, 4242)
	h := run(t, ch, seqProposals(6), 60, Options{})
	for p := 0; p < 6; p++ {
		if !h.procs[p].Decided() {
			t.Fatalf("p%d undecided under churn", p+1)
		}
	}
	// The skeleton converges to the core, whose MinK is 3.
	if vals := h.distinctDecisions(t); len(vals) > 3 {
		t.Fatalf("churn run produced %d values: %v", len(vals), vals)
	}
	checkValidity(t, h, seqProposals(6))
}

// TestDecisionPanicsBeforeDeciding — Decision() on an undecided process
// is a programming error.
func TestDecisionPanicsBeforeDeciding(t *testing.T) {
	p := New(1)
	p.Init(0, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Decision()
}

// TestMessageKindString covers the Stringers used in trace output.
func TestMessageKindString(t *testing.T) {
	if Prop.String() != "prop" || Decide.String() != "decide" {
		t.Fatal("Kind strings wrong")
	}
	if viaNone.String() != "none" || viaConnectivity.String() != "connectivity" ||
		viaMessage.String() != "message" {
		t.Fatal("Via strings wrong")
	}
}

// TestAdoptSmallestDecideValue — when several decide messages arrive in
// one round, the smallest value is adopted deterministically.
func TestAdoptSmallestDecideValue(t *testing.T) {
	// Two isolated roots p1, p2 both feed p3.
	g := graph.NewFullDigraph(3)
	g.AddSelfLoops()
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	h := run(t, adversary.Static(g), []int64{30, 20, 10}, 10, Options{})
	// p1 decides 30, p2 decides 20 (both at round 3); p3's own estimate
	// is min(30,20,10)=10 but it must adopt a decide value: 20.
	v, r := h.procs[2].Decision()
	if v != 20 || r != 4 || h.procs[2].DecidedVia() != viaMessage {
		t.Fatalf("p3 decided (%d, %d, %v), want (20, 4, message)",
			v, r, h.procs[2].DecidedVia())
	}
}
