// Package kset is the public API of the stable-skeleton k-set agreement
// library, a faithful reproduction of "Solving k-Set Agreement with
// Stable Skeleton Graphs" (Biely, Robinson, Schmid; IPDPS-W/IPPS 2011,
// arXiv:1102.4423).
//
// The library models distributed computations as infinite sequences of
// communication-closed rounds. Per-round connectivity is a directed
// communication graph chosen by an Adversary; Algorithm 1 (the paper's
// contribution, the Process type here) approximates the run's stable
// skeleton — the intersection of all round graphs — and decides when its
// approximation becomes strongly connected. In every run satisfying the
// communication predicate Psrcs(k) ("each k+1 processes contain two that
// perpetually hear a common 2-source"), at most k distinct values are
// decided; the predicate is tight (it cannot solve (k-1)-set agreement).
//
// Quick start:
//
//	adv := kset.Figure1()                       // a 6-process Psrcs(3) run
//	out, err := kset.Solve(adv, []int64{1, 2, 3, 4, 5, 6})
//	// out.Decisions, out.MinK, out.RootComps, ...
//
// The deeper layers remain available for custom experiments: executors
// and interfaces (internal/rounds re-exported here), the graph substrate,
// predicate checkers, adversaries, the wire codec, and the simulation
// driver. See README.md for the architecture and EXPERIMENTS.md for the
// reproduction results.
package kset

import (
	"math/rand"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/rounds"
	"kset/internal/runfile"
	"kset/internal/sim"
	"kset/internal/skeleton"
)

// Core model types, re-exported for downstream use.
type (
	// Digraph is a directed communication graph over processes 0..n-1.
	Digraph = graph.Digraph
	// NodeSet is a set of process indices.
	NodeSet = graph.NodeSet
	// Labeled is a round-labeled digraph (approximation graphs).
	Labeled = graph.Labeled

	// Algorithm is a per-process sending/transition state machine.
	Algorithm = rounds.Algorithm
	// Adversary supplies per-round communication graphs.
	Adversary = rounds.Adversary
	// Decider is implemented by agreement algorithms.
	Decider = rounds.Decider
	// Config describes one run for the executors.
	Config = rounds.Config
	// Result is an executor's outcome.
	Result = rounds.Result

	// Process is one Algorithm 1 process.
	Process = core.Process
	// Options are Algorithm 1's interpretation knobs.
	Options = core.Options
	// Message is Algorithm 1's round message (tag, x, G).
	Message = core.Message

	// Run is an eventually-constant adversary (prefix + stable graph).
	Run = adversary.Run
	// CrashSchedule assigns crash rounds for the crash adversary.
	CrashSchedule = adversary.CrashSchedule
	// Churn is the non-stabilizing additive-noise adversary.
	Churn = adversary.Churn

	// Spec describes one simulation for Execute.
	Spec = sim.Spec
	// Outcome bundles decisions with skeleton and wire measurements.
	Outcome = sim.Outcome

	// ObserverFunc adapts a function to the per-round Observer interface.
	ObserverFunc = rounds.ObserverFunc
)

// NewDigraph returns an empty communication graph over processes 0..n-1.
func NewDigraph(n int) *Digraph { return graph.NewDigraph(n) }

// NewFullDigraph returns a graph with all n processes present and no
// edges.
func NewFullDigraph(n int) *Digraph { return graph.NewFullDigraph(n) }

// CompleteDigraph returns the complete graph on n processes, self-loops
// included.
func CompleteDigraph(n int) *Digraph { return graph.CompleteDigraph(n) }

// AllDecided is a StopWhen helper: true once every process has decided.
func AllDecided(r int, procs []Algorithm) bool { return rounds.AllDecided(r, procs) }

// NewProcess returns an Algorithm 1 process proposing the given value.
func NewProcess(proposal int64) *Process { return core.New(proposal) }

// NewProcessWithOptions returns an Algorithm 1 process with explicit
// options.
func NewProcessWithOptions(proposal int64, opts Options) *Process {
	return core.NewWithOptions(proposal, opts)
}

// NewFactory adapts a proposal vector to the executor factory callback.
func NewFactory(proposals []int64, opts Options) func(self int) Algorithm {
	return core.NewFactory(proposals, opts)
}

// RunSequential executes a run in deterministic lockstep, one round at a
// time. Large runs step each round's transitions on all available
// cores; the result does not depend on how many there are.
func RunSequential(cfg Config) (*Result, error) { return rounds.RunSequential(cfg) }

// Execute runs one fully instrumented simulation.
func Execute(spec Spec) (*Outcome, error) { return sim.Execute(spec) }

// Solve is the one-call entry point: run Algorithm 1 under adv with the
// given proposals until everyone decides (or a generous automatic round
// bound is hit) and return the instrumented outcome. It runs the
// repaired decision guard r >= 2n-1 (Options.ConservativeDecide), which
// keeps the package's promise of at most k values in every Psrcs(k)
// run; the published guard r >= n does not (ConsensusViolation), and
// Execute with the zero Options runs it.
func Solve(adv Adversary, proposals []int64) (*Outcome, error) {
	return sim.Execute(sim.Spec{Adversary: adv, Proposals: proposals, Params: core.Options{ConservativeDecide: true}})
}

// StableSkeleton computes G^∩∞ and the stabilization round of an
// eventually-constant adversary (or of the first `horizon` rounds).
func StableSkeleton(adv Adversary, horizon int) (*Digraph, int) {
	return skeleton.StableSkeleton(adv, horizon)
}

// PsrcsHolds reports whether the predicate Psrcs(k) holds for a stable
// skeleton.
func PsrcsHolds(skel *Digraph, k int) bool { return predicate.Holds(skel, k) }

// MinK returns the smallest k for which Psrcs(k) holds in the given
// stable skeleton.
func MinK(skel *Digraph) int { return predicate.MinK(skel) }

// RootComponents returns the root components of a graph in deterministic
// order.
func RootComponents(g *Digraph) []NodeSet { return graph.RootComponents(g) }

// Adversary constructors, re-exported.

// Figure1 returns the paper's Figure 1 run (6 processes, Psrcs(3)).
func Figure1() *Run { return adversary.Figure1() }

// Complete returns the fully synchronous run on n processes.
func Complete(n int) *Run { return adversary.Complete(n) }

// Isolation returns the run in which every process hears only itself.
func Isolation(n int) *Run { return adversary.Isolation(n) }

// Static returns the run repeating g forever.
func Static(g *Digraph) *Run { return adversary.Static(g) }

// LowerBound returns the Theorem 2 run for which (k-1)-set agreement is
// impossible under Psrcs(k).
func LowerBound(n, k int) *Run { return adversary.LowerBound(n, k) }

// PartitionEven returns a run split into `blocks` isolated cliques.
func PartitionEven(n, blocks int) *Run {
	return adversary.Partition(n, adversary.EvenPartition(n, blocks))
}

// RandomSources returns a run with a random stable skeleton having the
// given number of root components, after a noisy prefix.
func RandomSources(n, roots, noisy int, p float64, rng *rand.Rand) *Run {
	return adversary.RandomSources(n, roots, noisy, p, rng)
}

// Eventual prefixes a run with `isolated` rounds of total isolation,
// modelling the eventual-only predicate ♦Psrcs.
func Eventual(base *Run, isolated int) *Run { return adversary.Eventual(base, isolated) }

// NewChurn wraps a core graph with per-round additive noise, forever.
func NewChurn(coreGraph *Digraph, p float64, seed int64) *Churn {
	return adversary.NewChurn(coreGraph, p, seed)
}

// NewMobile returns the Santoro-Widmayer mobile-omission adversary: f
// freshly chosen processes are silenced every round. With settleRound > 0
// the silent set freezes from that round on.
func NewMobile(n, f, settleRound int, seed int64) *adversary.Mobile {
	return adversary.NewMobile(n, f, settleRound, seed)
}

// ConsensusViolation returns the deterministic 4-process Psrcs(1) run on
// which the published Algorithm 1 decides two values (the E10
// counterexample); pair it with ConsensusViolationProposals and compare
// Execute with Options.ConservativeDecide off (two values) and on, as
// Solve runs it (one value).
func ConsensusViolation() *Run { return adversary.ConsensusViolation() }

// ConsensusViolationProposals returns the proposal vector of the E10
// counterexample.
func ConsensusViolationProposals() []int64 { return adversary.ConsensusViolationProposals() }

// EncodeRun serializes an eventually-constant run to the runfile format
// for storage and bit-identical replay.
func EncodeRun(run *Run) []byte { return runfile.Encode(run) }

// DecodeRun parses a runfile back into a replayable adversary.
func DecodeRun(buf []byte) (*Run, error) { return runfile.Decode(buf) }

// SeqProposals returns the canonical distinct proposals 1..n.
func SeqProposals(n int) []int64 { return sim.SeqProposals(n) }
