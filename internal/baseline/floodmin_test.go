package baseline

import (
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/trace"
)

func seqProposals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func runFloodMin(t *testing.T, adv rounds.Adversary, f, k, maxRounds int) *trace.Outcome {
	t.Helper()
	n := adv.N()
	res, err := rounds.RunSequential(rounds.Config{
		Adversary:  adv,
		NewProcess: NewFloodMinFactory(seqProposals(n), f, k),
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

func TestFloodMinRoundsFormula(t *testing.T) {
	cases := []struct{ f, k, want int }{
		{0, 1, 1}, {1, 1, 2}, {3, 1, 4},
		{3, 2, 2}, {4, 2, 3}, {5, 3, 2}, {6, 3, 3},
	}
	for _, c := range cases {
		fm := newFloodMin(0, c.f, c.k)
		if got := fm.Rounds(); got != c.want {
			t.Errorf("Rounds(f=%d,k=%d) = %d, want %d", c.f, c.k, got, c.want)
		}
	}
}

func TestFloodMinSynchronousConsensus(t *testing.T) {
	// No failures: everyone decides the global minimum after 1 round.
	oc := runFloodMin(t, adversary.Complete(5), 0, 1, 10)
	if err := oc.Check(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if oc.Decisions[i] != 1 || oc.DecideRounds[i] != 1 {
			t.Fatalf("p%d decided (%d, %d)", i+1, oc.Decisions[i], oc.DecideRounds[i])
		}
	}
}

func TestFloodMinToleratesCrashes(t *testing.T) {
	// The classical guarantee: with at most f crashes, ⌊f/k⌋+1 rounds
	// suffice for k-set agreement among the surviving processes. (The
	// paper's model additionally requires crashed-but-internally-correct
	// processes to decide; FloodMin makes no promise about them, which is
	// part of experiment E6's point.)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		f := rng.Intn(n)
		k := 1 + rng.Intn(3)
		adv, sched := adversary.RandomCrashes(n, f, newFloodMin(0, f, k).Rounds(), rng)
		oc := runFloodMin(t, adv, f, k, 20)
		if err := oc.CheckTermination(); err != nil {
			t.Fatalf("n=%d f=%d k=%d: %v", n, f, k, err)
		}
		if err := oc.CheckValidity(); err != nil {
			t.Fatalf("n=%d f=%d k=%d: %v", n, f, k, err)
		}
		survivors := oc.DistinctDecisionsAmong(func(i int) bool { return sched.Rounds[i] == 0 })
		if len(survivors) > k {
			t.Fatalf("n=%d f=%d k=%d: %d distinct survivor decisions %v",
				n, f, k, len(survivors), survivors)
		}
	}
}

func TestFloodSetConsensusUnderCrashes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(5)
		f := rng.Intn(n)
		adv, sched := adversary.RandomCrashes(n, f, f+1, rng)
		res, err := rounds.RunSequential(rounds.Config{
			Adversary:  adv,
			NewProcess: NewFloodMinFactory(seqProposals(n), f, 1),
			MaxRounds:  f + 3,
			StopWhen:   rounds.AllDecided,
		})
		if err != nil {
			t.Fatal(err)
		}
		oc, err := trace.Collect(res)
		if err != nil {
			t.Fatal(err)
		}
		survivors := oc.DistinctDecisionsAmong(func(i int) bool { return sched.Rounds[i] == 0 })
		if len(survivors) > 1 {
			t.Fatalf("n=%d f=%d: survivors decided %v", n, f, survivors)
		}
	}
}

func TestCrashedProcessCanDivergeUnderFloodMin(t *testing.T) {
	// Documented behavioral difference with Algorithm 1: a process that
	// crashes in round 1 without delivering its (globally minimal) value
	// keeps it forever, because it still hears everyone else but nobody
	// hears it. FloodMin lets it decide that private value; Algorithm 1
	// on the same run stays within the skeleton's MinK bound for all
	// processes, crashed ones included.
	n := 4
	sched := adversary.NewCrashSchedule(n).Crash(0, 1) // p1 silent from round 1
	adv := adversary.Crashes(n, sched)
	oc := runFloodMin(t, adv, 1, 1, 10) // f=1, k=1: 2 rounds
	if got := oc.DistinctDecisions(); len(got) != 2 {
		t.Fatalf("expected crashed p1 to diverge, decisions %v", got)
	}
	survivors := oc.DistinctDecisionsAmong(func(i int) bool { return i != 0 })
	if len(survivors) != 1 {
		t.Fatalf("survivors should agree, got %v", survivors)
	}

	res, err := rounds.RunSequential(rounds.Config{
		Adversary:  adv,
		NewProcess: core.NewFactory(seqProposals(n), core.Options{}),
		MaxRounds:  8 * n,
		StopWhen:   rounds.AllDecided,
	})
	if err != nil {
		t.Fatal(err)
	}
	oc2, err := trace.Collect(res)
	if err != nil {
		t.Fatal(err)
	}
	// The skeleton has two root components ({p1} and the survivor
	// clique), so MinK = 2 and Algorithm 1 guarantees <= 2 values for
	// ALL processes — a guarantee FloodMin cannot make for any k here.
	if err := oc2.Check(2); err != nil {
		t.Fatal(err)
	}
}

func TestFloodMinUnsafeUnderPsrcsRuns(t *testing.T) {
	// The point of experiment E6: FloodMin's f-crash assumption does not
	// cover the message loss Psrcs(k) permits. On the Theorem 2
	// lower-bound run, downstream processes hear only themselves and the
	// source s; when their own proposals are smaller than s's, each keeps
	// its own minimum and FloodMin decides n distinct values — far more
	// than k — while Algorithm 1 on the identical run stays at k.
	n, k := 6, 3
	adv := adversary.LowerBound(n, k)
	props := []int64{60, 50, 40, 30, 20, 10} // descending: L={p1,p2}, s=p3
	res, err := rounds.RunSequential(rounds.Config{
		Adversary:  adv,
		NewProcess: NewFloodMinFactory(props, k, k),
		MaxRounds:  10,
		StopWhen:   rounds.AllDecided,
	})
	if err != nil {
		t.Fatal(err)
	}
	oc, err := trace.Collect(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(oc.DistinctDecisions()); got != n {
		t.Fatalf("FloodMin should decide n=%d distinct values here, got %d (%v)",
			n, got, oc.DistinctDecisions())
	}
	if err := oc.CheckKAgreement(k); err == nil {
		t.Fatal("expected FloodMin to violate 3-agreement")
	}
	// It still terminates and stays valid — only agreement breaks.
	if err := oc.CheckTermination(); err != nil {
		t.Fatal(err)
	}
	if err := oc.CheckValidity(); err != nil {
		t.Fatal(err)
	}

	// Algorithm 1 on the identical run and proposals: exactly k values.
	res2, err := rounds.RunSequential(rounds.Config{
		Adversary:  adv,
		NewProcess: core.NewFactory(props, core.Options{}),
		MaxRounds:  40,
		StopWhen:   rounds.AllDecided,
	})
	if err != nil {
		t.Fatal(err)
	}
	oc2, err := trace.Collect(res2)
	if err != nil {
		t.Fatal(err)
	}
	if err := oc2.Check(k); err != nil {
		t.Fatalf("Algorithm 1 on the same run: %v", err)
	}
	if got := len(oc2.DistinctDecisions()); got != k {
		t.Fatalf("Algorithm 1 should realize exactly k=%d values, got %d", k, got)
	}
}

func TestFloodMinIrrevocable(t *testing.T) {
	fm := newFloodMin(5, 0, 1)
	fm.Init(0, 2)
	recv := []any{int64(5), int64(9)}
	fm.Transition(1, recv)
	if !fm.Decided() {
		t.Fatal("should decide at round 1 with f=0")
	}
	v, r := fm.Decision()
	if v != 5 || r != 1 {
		t.Fatalf("decision (%d, %d)", v, r)
	}
	// Later smaller values must not change the decision.
	fm.Transition(2, []any{int64(1), nil})
	if got, _ := fm.Decision(); got != 5 {
		t.Fatalf("decision changed to %d", got)
	}
}

func TestFloodMinValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { newFloodMin(0, -1, 1) },
		func() { newFloodMin(0, 0, 0) },
		func() { fm := newFloodMin(0, 0, 1); fm.Decision() },
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

func TestFloodMinProposal(t *testing.T) {
	fm := newFloodMin(77, 1, 2)
	fm.Init(0, 3)
	if fm.Proposal() != 77 {
		t.Fatal("Proposal wrong")
	}
}
