package check

import (
	"testing"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
)

// TestExploreN2Exhaustive checks every n=2 configuration of depth 3
// against the sound oracles under the repaired guard: the paper's claims
// must hold on all of them.
func TestExploreN2Exhaustive(t *testing.T) {
	rep, err := Explore(ExploreConfig{N: 2, Depth: 3, Check: conservative()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sequences != 64 || rep.Configurations != 128 {
		t.Fatalf("sequences = %d configurations = %d, want 64 and 128", rep.Sequences, rep.Configurations)
	}
	if rep.FailedRuns != 0 {
		t.Fatalf("%d failing runs, first:\n%s", rep.FailedRuns, rep.Failures[0])
	}
	if rep.Executions != rep.Sequences {
		t.Fatalf("executions = %d, orbit-stabilizer says they must equal the %d sequences",
			rep.Executions, rep.Sequences)
	}
}

// TestExploreN3Exhaustive is the acceptance-criterion exploration: all
// n=3 depth-2 configurations (4096 schedules × 6 proposal orders,
// symmetry-reduced to 4096 executions) pass every sound oracle under the
// repaired guard.
func TestExploreN3Exhaustive(t *testing.T) {
	rep, err := Explore(ExploreConfig{N: 3, Depth: 2, Check: conservative()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sequences != 4096 || rep.Configurations != 4096*6 {
		t.Fatalf("sequences = %d configurations = %d", rep.Sequences, rep.Configurations)
	}
	if rep.FailedRuns != 0 {
		t.Fatalf("%d failing runs, first:\n%s", rep.FailedRuns, rep.Failures[0])
	}
	// Orbit–stabilizer: one execution per configuration class, summing
	// to exactly the schedule count.
	if rep.Executions != rep.Sequences {
		t.Fatalf("executions = %d, want %d", rep.Executions, rep.Sequences)
	}
	if red := rep.Reduction(); red != 6 {
		t.Errorf("symmetry reduction %.2fx, want exactly 6x (|S3|)", red)
	}
	t.Logf("n=3 depth=2: %d configurations, %d canonical schedules, %d executions (%.0fx reduction)",
		rep.Configurations, rep.Canonical, rep.Executions, rep.Reduction())
}

// TestExploreFaithfulGuardFindsFlaw is the falsification engine doing
// its job: under the PUBLISHED (unsound) line-28 guard, the exhaustive
// n=3 depth-2 exploration must find k-bound violations — a smaller
// witness of the same flaw that E10 demonstrates with a hand-crafted
// 4-process run. The first failure must shrink without growing and keep
// its oracle class.
func TestExploreFaithfulGuardFindsFlaw(t *testing.T) {
	cfg := Config{Opts: core.Options{}}
	rep, err := Explore(ExploreConfig{N: 3, Depth: 2, Check: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedRuns == 0 {
		t.Fatal("published guard survived the exhaustive n=3 depth=2 exploration; " +
			"the E10 flaw has a 3-process witness and must be found")
	}
	t.Logf("published guard: %d of %d executions violate; first:\n%s",
		rep.FailedRuns, rep.Executions, rep.Failures[0])

	fail := rep.Failures[0]
	res, err := Shrink(fail, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Oracle != "k-bound" {
		t.Fatalf("shrunk oracle class %q, want k-bound", res.Oracle)
	}
	min := res.Failure
	if min.Run.N() > fail.Run.N() || min.Run.PrefixLen() > fail.Run.PrefixLen() {
		t.Fatal("shrinking made the counterexample bigger")
	}
}

// TestExploreMatchesBruteForce cross-validates the symmetry reduction:
// a plain brute force over all n=3 depth-2 schedules with FIXED
// canonical proposals is a subset of the explorer's configuration space,
// so wherever brute force finds failures the explorer must too, and
// under the repaired guard both must find none.
func TestExploreMatchesBruteForce(t *testing.T) {
	brute := func(cfg Config) int {
		e := &explorer{n: 3, m: 6, graphs: make([]*graph.Digraph, 64)}
		failed := 0
		for m1 := uint32(0); m1 < 64; m1++ {
			for m2 := uint32(0); m2 < 64; m2++ {
				run := adversary.NewRun([]*graph.Digraph{e.graphFor(m1)}, e.graphFor(m2))
				fail, err := CheckRun(run, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if fail != nil {
					failed++
				}
			}
		}
		return failed
	}

	faithful := Config{Opts: core.Options{}}
	bruteFaithful := brute(faithful)
	if bruteFaithful == 0 {
		t.Fatal("fixed-proposal brute force found no faithful-guard failures; expected the E10 flaw at n=3")
	}
	repFaithful, err := Explore(ExploreConfig{N: 3, Depth: 2, Check: faithful})
	if err != nil {
		t.Fatal(err)
	}
	if repFaithful.FailedRuns == 0 {
		t.Fatalf("brute force finds %d failures but the explorer finds none: reduction is unsound", bruteFaithful)
	}

	if bruteCons := brute(conservative()); bruteCons != 0 {
		t.Fatalf("brute force found %d conservative-guard failures", bruteCons)
	}
	t.Logf("faithful guard: brute force %d/4096 failed (fixed proposals), explorer %d/%d (all proposal orders)",
		bruteFaithful, repFaithful.FailedRuns, repFaithful.Executions)
}

// TestExploreCanonicalOrbitCounting cross-checks the lex-leader count on
// n=3 depth=1 against a direct count of lex-least masks.
func TestExploreCanonicalOrbitCounting(t *testing.T) {
	perms := schedulePerms(3)
	want := 0
	for mask := uint32(0); mask < 64; mask++ {
		least := true
		for _, sp := range perms {
			if permuteMask(mask, sp.bits) < mask {
				least = false
				break
			}
		}
		if least {
			want++
		}
	}
	rep, err := Explore(ExploreConfig{N: 3, Depth: 1, Check: conservative()})
	if err != nil {
		t.Fatal(err)
	}
	if int(rep.Canonical) != want {
		t.Fatalf("explorer executed %d canonical masks, direct count says %d", rep.Canonical, want)
	}
	if rep.Executions != rep.Sequences {
		t.Fatalf("executions = %d, want %d", rep.Executions, rep.Sequences)
	}
}

// TestExploreRejectsBadConfigs pins the search-space and argument
// guards.
func TestExploreRejectsBadConfigs(t *testing.T) {
	if _, err := Explore(ExploreConfig{N: 4, Depth: 3, Check: conservative()}); err == nil {
		t.Fatal("no error for a 2^36 search space")
	}
	if _, err := Explore(ExploreConfig{N: 5, Depth: 1, Check: conservative()}); err == nil {
		t.Fatal("no error for n=5")
	}
	bad := conservative()
	bad.Proposals = []int64{1, 2, 3}
	if _, err := Explore(ExploreConfig{N: 3, Depth: 1, Check: bad}); err == nil {
		t.Fatal("no error for a fixed proposal override")
	}
}
