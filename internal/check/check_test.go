package check

import (
	"os"
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/runfile"
)

func conservative() Config {
	return Config{Opts: core.Options{ConservativeDecide: true}}
}

// TestCheckRunCleanOnZoo pins that the sound oracle set holds on the
// paper's own constructions under the repaired guard.
func TestCheckRunCleanOnZoo(t *testing.T) {
	runs := map[string]*adversary.Run{
		"figure1":    adversary.Figure1(),
		"complete6":  adversary.Complete(6),
		"isolation4": adversary.Isolation(4),
		"lowerbound": adversary.LowerBound(6, 3),
		"partition":  adversary.Partition(6, adversary.EvenPartition(6, 2)),
		"eventual":   adversary.Eventual(adversary.Complete(5), 3),
	}
	for name, run := range runs {
		fail, err := CheckRun(run, conservative())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fail != nil {
			t.Errorf("%s: unexpected violations:\n%s", name, fail)
		}
	}
}

// TestCheckRunFindsE10Flaw pins that the oracle set detects the
// published guard's unsoundness on its deterministic witness: the
// paper-faithful options MUST violate k-bound on ConsensusViolation
// with its crafted proposal vector.
func TestCheckRunFindsE10Flaw(t *testing.T) {
	cfg := Config{
		Opts:      core.Options{},
		Proposals: adversary.ConsensusViolationProposals(),
	}
	fail, err := CheckRun(adversary.ConsensusViolation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		t.Fatal("paper-faithful guard passed all oracles on the E10 witness")
	}
	found := false
	for _, v := range fail.Violations {
		if v.Oracle == "k-bound" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a k-bound violation, got:\n%s", fail)
	}
}

// TestInvertedOracleShrinksToTrivialRun pins the acceptance-criterion
// fire drill: the deliberately broken inverted-k oracle fires on any
// correct run; shrinking must reduce the counterexample to a trivial
// schedule that still replays through a runfile round-trip.
func TestInvertedOracleShrinksToTrivialRun(t *testing.T) {
	cfg := Config{
		Opts:         core.Options{ConservativeDecide: true},
		InvertKBound: true,
	}
	run := GenRun(4, StrategyArbitrary, 7, 0)
	fail, err := CheckRun(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		t.Fatal("inverted-k oracle did not fire")
	}
	res, err := Shrink(fail, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Oracle != "inverted-k-bound" {
		t.Fatalf("shrunk oracle = %q", res.Oracle)
	}
	min := res.Failure
	if min.Run.N() != 1 || min.Run.PrefixLen() != 0 {
		t.Errorf("shrink left n=%d prefix=%d, want the trivial 1-process static run",
			min.Run.N(), min.Run.PrefixLen())
	}
	if min.Outcome.Rounds > 3 {
		t.Errorf("shrunk counterexample needs %d rounds, want <= 3", min.Outcome.Rounds)
	}

	// Replay through the runfile codec.
	buf := runfile.Encode(min.Run)
	replayed, err := runfile.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	again, err := CheckRun(replayed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again == nil {
		t.Fatal("replayed counterexample no longer violates")
	}
	if again.Violations[0].Oracle != "inverted-k-bound" {
		t.Fatalf("replayed violation = %v", again.Violations[0])
	}
}

// TestShrinkPreservesOracleClass plants a k-bound failure via the
// published guard's flaw and checks the shrinker keeps that class while
// strictly simplifying the schedule.
func TestShrinkPreservesOracleClass(t *testing.T) {
	cfg := Config{
		Opts:      core.Options{},
		Proposals: adversary.ConsensusViolationProposals(),
	}
	fail, err := CheckRun(adversary.ConsensusViolation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		t.Fatal("witness did not fire with crafted proposals") // pinned above too
	}
	// Shrinking re-checks with canonical 1..n proposals; the class must
	// still reproduce for the shrinker to make progress. If it does not,
	// Shrink returns the input unchanged — also acceptable, but pin
	// whichever holds so regressions surface.
	res, err := Shrink(fail, cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatal("shrink lost the counterexample")
	}
	found := false
	for _, v := range res.Failure.Violations {
		if v.Oracle == res.Oracle {
			found = true
		}
	}
	if res.Oracle != "" && !found {
		t.Fatalf("shrunk failure lost its oracle class %q:\n%s", res.Oracle, res.Failure)
	}
}

// TestWriteCounterexampleArtifacts checks the exporter emits the three
// artifact files and that the runfile replays.
func TestWriteCounterexampleArtifacts(t *testing.T) {
	cfg := Config{
		Opts:         core.Options{ConservativeDecide: true},
		InvertKBound: true,
	}
	fail, err := CheckRun(adversary.Complete(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		t.Fatal("inverted oracle did not fire")
	}
	dir := t.TempDir()
	paths, err := WriteCounterexample(dir, "ce", fail)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("wrote %d artifacts, want 3", len(paths))
	}
	run, err := runfile.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if run.N() != 3 {
		t.Fatalf("replayed runfile has n=%d", run.N())
	}
	for _, p := range paths[1:] {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), "p1") {
			t.Errorf("%s looks empty:\n%s", p, b)
		}
	}
}
