package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/stats"
)

// randomSources8 is the digest tests' default trial: n = 8, a random
// rooted skeleton under a noisy prefix.
func randomSources8(rng *rand.Rand) *adversary.Run {
	return adversary.RandomSources(8, 1+rng.Intn(3), rng.Intn(8), 0.25, rng)
}

// executing turns a spec builder into a Sweep cell.
func executing(spec func(cell int) (Spec, error)) func(cell int) (*Outcome, error) {
	return func(cell int) (*Outcome, error) {
		s, err := spec(cell)
		if err != nil {
			return nil, err
		}
		return Execute(s)
	}
}

// sweepDigest runs a sweep over `cells` random trials drawn by adv and
// renders the summaries of the delivered values as a string. Any
// dependence of the deliveries on the worker count would change the
// digest.
func sweepDigest(t *testing.T, adv func(*rand.Rand) *adversary.Run, cells, workers, shardSize int) string {
	t.Helper()
	var rounds, distinct []float64
	order := make([]int, 0, cells)
	err := sweep(cells, workers, shardSize,
		func(cell int) (*Outcome, error) {
			run := adv(rand.New(rand.NewSource(CellSeed(42, cell))))
			return Execute(Spec{Adversary: run, Proposals: SeqProposals(run.N())})
		},
		func(cell int, out *Outcome) error {
			order = append(order, cell)
			rounds = append(rounds, float64(out.MaxDecisionRound()))
			distinct = append(distinct, float64(len(out.DistinctDecisions())))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range order {
		if c != i {
			t.Fatalf("workers=%d: outcome %d delivered at position %d", workers, c, i)
		}
	}
	return fmt.Sprintf("%v | distinct mean=%v max=%v", stats.Summarize(rounds), stats.Mean(distinct), stats.Max(distinct))
}

func TestSweepByteStableAcrossWorkers(t *testing.T) {
	const cells = 60
	want := sweepDigest(t, randomSources8, cells, 1, 4)
	for _, workers := range []int{4, 8} {
		for _, shard := range []int{1, 4, 16} {
			if got := sweepDigest(t, randomSources8, cells, workers, shard); got != want {
				t.Fatalf("workers=%d shard=%d digest\n  %s\nwant (workers=1)\n  %s",
					workers, shard, got, want)
			}
		}
	}
}

// TestSweepByteStableAcrossCores is the same pin one size above the
// crossover (n >= 128) from which rounds.RunSequential shards each
// trial's transitions over GOMAXPROCS workers: the table must not depend
// on the core count either, alone or under a parallel sweep.
func TestSweepByteStableAcrossCores(t *testing.T) {
	const n, cells = 130, 6
	hubs := func(rng *rand.Rand) *adversary.Run {
		return adversary.HubClusters(n, 1+rng.Intn(3), 4, 2/float64(n), rng)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := sweepDigest(t, hubs, cells, 1, 1)
	runtime.GOMAXPROCS(2)
	for _, workers := range []int{1, 4} {
		if got := sweepDigest(t, hubs, cells, workers, 2); got != want {
			t.Fatalf("GOMAXPROCS=2 workers=%d digest\n  %s\nwant (GOMAXPROCS=1, workers=1)\n  %s", workers, got, want)
		}
	}
}

func TestSweepPropagatesRunAndDeliverErrors(t *testing.T) {
	specErr := func(cell int) (Spec, error) {
		if cell == 3 {
			return Spec{}, fmt.Errorf("boom")
		}
		return Spec{Adversary: adversary.Complete(3), Proposals: SeqProposals(3)}, nil
	}
	for _, workers := range []int{1, 4} {
		err := sweep(10, workers, 2, executing(specErr),
			func(cell int, out *Outcome) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "cell 3") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}

	// Consumer errors abort too.
	err := Sweep(8, 4,
		func(cell int) (*Outcome, error) {
			return Execute(Spec{Adversary: adversary.Complete(3), Proposals: SeqProposals(3)})
		},
		func(cell int, out *Outcome) error {
			if cell == 2 {
				return fmt.Errorf("consumer stop")
			}
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "cell 2") {
		t.Fatalf("consumer error not propagated: %v", err)
	}
}

func TestSweepValidation(t *testing.T) {
	ok := func(cell int, out *Outcome) error { return nil }
	run := func(cell int) (*Outcome, error) {
		return Execute(Spec{Adversary: adversary.Complete(2), Proposals: SeqProposals(2)})
	}
	if err := Sweep(1, 1, nil, ok); err == nil {
		t.Fatal("nil run accepted")
	}
	if err := Sweep(1, 1, run, nil); err == nil {
		t.Fatal("nil deliver accepted")
	}
	if err := Sweep(-1, 1, run, ok); err == nil {
		t.Fatal("negative cells accepted")
	}
	// Zero cells is a valid empty sweep.
	if err := Sweep(0, 1, run, ok); err != nil {
		t.Fatal(err)
	}
}

func TestCellSeedDistinctAndStable(t *testing.T) {
	seen := map[int64]int{}
	for cell := 0; cell < 10000; cell++ {
		s := CellSeed(20110222, cell)
		if s < 0 {
			t.Fatalf("negative seed for cell %d", cell)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("cells %d and %d share seed %d", prev, cell, s)
		}
		seen[s] = cell
	}
	if CellSeed(1, 1) != CellSeed(1, 1) {
		t.Fatal("CellSeed not deterministic")
	}
	if CellSeed(1, 1) == CellSeed(2, 1) {
		t.Fatal("CellSeed ignores base seed")
	}
}

// TestExecuteAutoBound pins the Spec.MaxRounds == 0 contract stated in
// the field's doc comment: stabilization round + 2n + 5 for Stabilizer
// adversaries, 12n for adversaries with no known stabilization round
// (e.g. Churn). RunToCompletion makes the executed round count equal the
// bound, so a drift between comment and code fails here.
func TestExecuteAutoBound(t *testing.T) {
	n := 6
	churn := adversary.NewChurn(adversary.Figure1StableSkeleton(), 0.05, 3)
	out, err := Execute(Spec{
		Adversary:       churn,
		Proposals:       SeqProposals(n),
		RunToCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds != 12*n {
		t.Fatalf("non-Stabilizer auto bound ran %d rounds, want 12n = %d", out.Rounds, 12*n)
	}

	stab := adversary.Eventual(adversary.Complete(n), 4) // stabilizes at round 5
	out, err = Execute(Spec{
		Adversary:       stab,
		Proposals:       SeqProposals(n),
		RunToCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := stab.StabilizationRound() + 2*n + 5; out.Rounds != want {
		t.Fatalf("Stabilizer auto bound ran %d rounds, want %d", out.Rounds, want)
	}
}
