package check

import (
	"strings"
	"testing"

	"kset/internal/core"
)

// TestFuzzCleanCampaign runs a deterministic mixed-strategy campaign
// under the repaired guard: no sound oracle may fire.
func TestFuzzCleanCampaign(t *testing.T) {
	budget := 2000
	if testing.Short() {
		budget = 200
	}
	rep, err := Fuzz(FuzzConfig{N: 4, Budget: budget, Seed: 1, Check: conservative()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != budget {
		t.Fatalf("executed %d of %d runs", rep.Runs, budget)
	}
	if rep.FailedRuns != 0 {
		t.Fatalf("%d failing runs, first:\n%s", rep.FailedRuns, rep.Failures[0])
	}
}

// TestFuzzRejectsUnknownStrategy: a misspelled strategy is an error that
// lists the valid names, returned before any cell runs.
func TestFuzzRejectsUnknownStrategy(t *testing.T) {
	_, err := Fuzz(FuzzConfig{N: 4, Budget: 10, Strategy: "bogus"})
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, want := range []string{`"bogus"`, "mixed", "arbitrary", "rooted", "singlesource", "mutate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	for _, st := range []Strategy{"", strategyMixed, strategyArbitrary, strategyRooted, strategySingleSource, strategyMutate} {
		if _, err := Fuzz(FuzzConfig{N: 3, Budget: 1, Strategy: st, Check: conservative()}); err != nil {
			t.Errorf("strategy %q: %v", st, err)
		}
	}
}

// TestFuzzDeterministicAcrossWorkers pins the campaign's determinism
// contract: identical seeds give identical failure counts (and identical
// first failing schedules) for any worker count.
func TestFuzzDeterministicAcrossWorkers(t *testing.T) {
	cfg := FuzzConfig{
		N:      4,
		Budget: 500,
		Seed:   42,
		Check: Config{
			Opts:         core.Options{ConservativeDecide: true},
			InvertKBound: true, // fires on every run
		},
		KeepFailures: 1,
	}
	base, err := Fuzz(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.FailedRuns != cfg.Budget {
		t.Fatalf("inverted oracle fired on %d of %d runs", base.FailedRuns, cfg.Budget)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		rep, err := Fuzz(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FailedRuns != base.FailedRuns {
			t.Fatalf("workers=%d: %d failed runs, want %d", workers, rep.FailedRuns, base.FailedRuns)
		}
		if got, want := rep.Failures[0].Run, base.Failures[0].Run; got.N() != want.N() ||
			got.PrefixLen() != want.PrefixLen() || !got.Base().Equal(want.Base()) {
			t.Fatalf("workers=%d: first failing schedule differs from sequential run", workers)
		}
	}
}

// TestFuzzFindsPlantedFlaw seeds the campaign with the paper-faithful
// guard and lets the fuzzer search for the E10 unsoundness at n=4: the
// adversarial schedule space contains it, and the fuzzer must hit it
// within a modest deterministic budget.
func TestFuzzFindsPlantedFlaw(t *testing.T) {
	budget := 30000
	if testing.Short() {
		t.Skip("needs a real budget")
	}
	rep, err := Fuzz(FuzzConfig{
		N:      4,
		Budget: budget,
		Seed:   1,
		Check:  Config{Opts: core.Options{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedRuns == 0 {
		t.Skipf("no violation in %d runs at seed 1 — widen the budget to re-probe", budget)
	}
	fail := rep.Failures[0]
	t.Logf("found %d failing runs; first:\n%s", rep.FailedRuns, fail)

	res, err := Shrink(fail, Config{Opts: core.Options{}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	min := res.Failure
	t.Logf("shrunk (%d executions) to n=%d prefix=%d:\n%s",
		res.Executions, min.Run.N(), min.Run.PrefixLen(), min)
	if min.Run.N() > fail.Run.N() || min.Run.PrefixLen() > fail.Run.PrefixLen() {
		t.Fatal("shrinking made the counterexample bigger")
	}
}

// TestGenRunDeterministic pins that cell schedules are pure functions of
// (seed, cell).
func TestGenRunDeterministic(t *testing.T) {
	for cell := 0; cell < 50; cell++ {
		a := genRun(4, strategyMixed, 9, cell)
		b := genRun(4, strategyMixed, 9, cell)
		if a.N() != b.N() || a.PrefixLen() != b.PrefixLen() || !a.Base().Equal(b.Base()) {
			t.Fatalf("cell %d: schedules differ across regenerations", cell)
		}
		for r := 1; r <= a.PrefixLen(); r++ {
			if !a.Graph(r).Equal(b.Graph(r)) {
				t.Fatalf("cell %d round %d differs", cell, r)
			}
		}
	}
}
