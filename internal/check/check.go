// Package check is the falsification engine of the reproduction
// (DESIGN.md §6): it turns the simulator into an adversarial
// model-checker that systematically searches the schedule space for
// violations of the paper's correctness claims, instead of trusting the
// hand-picked adversaries of E1–E16.
//
// Three engines share one oracle set:
//
//   - Explore enumerates every communication-graph schedule of a tiny
//     instance (n <= 4, bounded rounds), symmetry-reduced by lex-leader
//     canonicalization under process renaming, and checks every oracle
//     on every branch.
//   - Fuzz generates random predicate-respecting and arbitrary schedules
//     (mutations over the adversary zoo plus unconstrained per-round
//     digraphs) and checks them on the sim.Sweep worker pool.
//   - Shrink reduces any failing schedule to a minimal counterexample
//     (drop rounds, drop edges, remove processes) and exports it as a
//     replayable runfile plus a DOT trace.
//
// The oracles encode the paper's invariants as checkable predicates over
// core state: validity, the k-agreement bound (distinct decisions never
// exceed MinK of the realized stable skeleton), termination within the
// Lemma 11 round bound, per-round structure of the approximation graphs
// Gp (label freshness and accuracy, purge window, prune reachability —
// Lemma 3/4), PT consistency with the skeleton tracker, decision
// irrevocability, and skeleton-stabilization detection.
package check

import (
	"fmt"
	"strings"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/sim"
	"kset/internal/trace"
)

// Violation is one oracle failure observed during a checked run.
type Violation struct {
	// Oracle names the violated invariant (e.g. "k-bound", "purge").
	Oracle string
	// Round is the round in which the violation was observed; 0 for
	// post-run (whole-trace) oracles.
	Round int
	// Process is the 0-based process the violation concerns; -1 for
	// run-wide violations.
	Process int
	// Detail is a human-readable account of the failure.
	Detail string
}

func (v Violation) String() string {
	loc := "post-run"
	if v.Round > 0 {
		loc = fmt.Sprintf("round %d", v.Round)
	}
	who := "run"
	if v.Process >= 0 {
		who = fmt.Sprintf("p%d", v.Process+1)
	}
	return fmt.Sprintf("[%s] %s %s: %s", v.Oracle, loc, who, v.Detail)
}

// Config drives one oracle-checked execution.
type Config struct {
	// Opts configures Algorithm 1. The zero value is the paper-faithful
	// configuration — note that the published line-28 guard is unsound
	// (see core.Options.ConservativeDecide), so checking with sound
	// oracles and the zero value WILL surface the E10 flaw; set
	// ConservativeDecide for a guard the oracles hold against.
	Opts core.Options
	// InvertKBound replaces every oracle with the negation of the
	// k-bound: a violation is reported whenever the run SATISFIES the
	// bound. It is deliberately broken — the fire drill used to
	// demonstrate that the fuzzer finds and the shrinker minimizes
	// counterexamples.
	InvertKBound bool
	// Proposals overrides the initial values; nil means the canonical
	// distinct vector 1..n. Must have length n when set.
	Proposals []int64
}

// maxViolations caps the violations recorded per run.
const maxViolations = 16

// Failure describes a run that violated at least one oracle, with enough
// context to report, shrink, and replay it.
type Failure struct {
	// Run is the failing schedule.
	Run *adversary.Run
	// Proposals are the initial values used (the canonical 1..n vector).
	Proposals []int64
	// Violations are the recorded oracle failures, in observation order.
	Violations []Violation
	// Outcome is the decision summary of the failing run.
	Outcome *trace.Outcome
	// MinK and Skeleton describe the realized stable skeleton.
	MinK     int
	Skeleton *graph.Digraph
}

// String renders a compact report of the failure.
func (f *Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d oracle violation(s) on a run of %d processes (%d prefix rounds, MinK=%d):\n",
		len(f.Violations), f.Run.N(), f.Run.PrefixLen(), f.MinK)
	for _, v := range f.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if f.Outcome != nil {
		b.WriteString(f.Outcome.String())
	}
	return b.String()
}

// MaxRoundsFor returns the round bound a checked run executes under:
// stabilization + 3n + 5. Lemma 11 bounds termination by r_ST + 2n - 1
// under the published guard; the conservative guard delays the
// connectivity floor to 2n-1 and the decide wave by up to n-1 more
// rounds, so 3n with margin covers both.
func MaxRoundsFor(run *adversary.Run) int {
	return run.StabilizationRound() + 3*run.N() + 5
}

// CheckRun executes one schedule under the oracle set and returns the
// Failure, or nil if every oracle held. It is the one checked-execution
// entry point: Explore, Shrink and every Fuzz cell call it.
func CheckRun(run *adversary.Run, cfg Config) (*Failure, error) {
	proposals := cfg.Proposals
	if proposals == nil {
		proposals = sim.SeqProposals(run.N())
	}
	obs := newObserver(run, proposals, cfg)
	out, err := sim.Execute(sim.Spec{
		Adversary: run,
		Proposals: proposals,
		Params:    cfg.Opts,
		MaxRounds: MaxRoundsFor(run),
		Observer:  obs,
	})
	if err != nil {
		return nil, err
	}
	return obs.finish(out), nil
}
