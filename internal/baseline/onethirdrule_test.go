package baseline

import (
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/rounds"
	"kset/internal/trace"
)

func runOTR(t *testing.T, adv rounds.Adversary, props []int64, maxRounds int) *trace.Outcome {
	t.Helper()
	res, err := rounds.RunSequential(rounds.Config{
		Adversary:  adv,
		NewProcess: NewOneThirdRuleFactory(props),
		MaxRounds:  maxRounds,
		StopWhen:   rounds.AllDecided,
	})
	if err != nil {
		t.Fatal(err)
	}
	oc, err := trace.Collect(res)
	if err != nil {
		t.Fatal(err)
	}
	return oc
}

func TestOneThirdRuleSynchronousConsensus(t *testing.T) {
	// Complete graph: everyone hears all n values, the smallest most
	// frequent value is the global minimum of... all values are
	// distinct, so the tie-break picks the smallest; decided as soon as
	// >2n/3 received values agree — after round 1 everyone holds the
	// minimum, so round 2 decides.
	oc := runOTR(t, adversary.Complete(6), seqProposals(6), 10)
	if err := oc.Check(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if oc.Decisions[i] != 1 {
			t.Fatalf("p%d decided %d, want 1", i+1, oc.Decisions[i])
		}
	}
}

func TestOneThirdRuleUnanimousDecidesFast(t *testing.T) {
	props := []int64{7, 7, 7, 7}
	oc := runOTR(t, adversary.Complete(4), props, 5)
	for i := range props {
		if !oc.Decided[i] || oc.Decisions[i] != 7 || oc.DecideRounds[i] != 1 {
			t.Fatalf("p%d: decided=%v val=%d round=%d",
				i+1, oc.Decided[i], oc.Decisions[i], oc.DecideRounds[i])
		}
	}
}

func TestOneThirdRuleSafeUnderAnyRun(t *testing.T) {
	// Safety (agreement + validity among deciders) must hold whatever
	// the communication: run random adversaries and check any decisions
	// that appear.
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		adv := adversary.RandomSources(n, 1+rng.Intn(3), rng.Intn(4), 0.4, rng)
		res, err := rounds.RunSequential(rounds.Config{
			Adversary:  adv,
			NewProcess: NewOneThirdRuleFactory(seqProposals(n)),
			MaxRounds:  4 * n,
		})
		if err != nil {
			t.Fatal(err)
		}
		oc, err := trace.Collect(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := oc.CheckValidity(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := len(oc.DistinctDecisions()); got > 1 {
			t.Fatalf("n=%d: OneThirdRule agreement violated: %v",
				n, oc.DistinctDecisions())
		}
	}
}

func TestOneThirdRuleStallsOnSparsePsrcsRuns(t *testing.T) {
	// The E6 liveness axis: the Theorem 2 run satisfies Psrcs(3), and
	// Algorithm 1 terminates there, but heard-of sets have size <= 2,
	// far below the 2n/3 threshold — OneThirdRule never decides.
	n := 6
	adv := adversary.LowerBound(n, 3)
	res, err := rounds.RunSequential(rounds.Config{
		Adversary:  adv,
		NewProcess: NewOneThirdRuleFactory(seqProposals(n)),
		MaxRounds:  20 * n,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Procs {
		if p.(*oneThirdRule).Decided() {
			t.Fatalf("p%d decided despite sub-threshold heard-of sets", i+1)
		}
	}
}

func TestOneThirdRuleKeepsEstimateBelowThreshold(t *testing.T) {
	o := newOneThirdRule(9)
	o.Init(0, 6)
	// Hears only 2 of 6 (<= 2n/3 = 4): estimate unchanged.
	recv := make([]any, 6)
	recv[0] = int64(9)
	recv[1] = int64(1)
	o.Transition(1, recv)
	if o.x != 9 {
		t.Fatalf("estimate changed to %d below threshold", o.x)
	}
	// Hears 5 of 6 with majority value 1: adopts it.
	for i := 0; i < 5; i++ {
		recv[i] = int64(1)
	}
	o.Transition(2, recv)
	if o.x != 1 {
		t.Fatalf("estimate = %d, want 1", o.x)
	}
	if !o.Decided() {
		t.Fatal("5 equal values of 6 exceed 2n/3: should decide")
	}
	if v, r := o.Decision(); v != 1 || r != 2 {
		t.Fatalf("decision (%d, %d)", v, r)
	}
}

func TestOneThirdRuleDecisionPanicsUndecided(t *testing.T) {
	o := newOneThirdRule(1)
	o.Init(0, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.Decision()
}

func TestOneThirdRuleTieBreakDeterministic(t *testing.T) {
	// Two values with equal counts above threshold: smallest wins.
	o := newOneThirdRule(5)
	o.Init(0, 4)
	recv := []any{int64(3), int64(3), int64(2), int64(2)}
	o.Transition(1, recv)
	if o.x != 2 {
		t.Fatalf("tie-break picked %d, want 2", o.x)
	}
}
