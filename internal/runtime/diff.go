package runtime

import (
	"fmt"
	"math/rand"
	"time"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/sim"
	"kset/internal/transport"
)

// DiffOpts configures one differential replay.
type DiffOpts struct {
	// Kind selects the replay transport: "inproc" (default), "tcp", or
	// "udp". The UDP replay uses the service's generous loopback timing
	// (250ms round deadline, 2ms grace) so a quiet loopback is
	// effectively lossless and the comparison stays bit-exact.
	Kind string
	// Nodes groups the processes onto this many mesh nodes for the
	// socket transports (0 = one per process); see RunnerOpts.Nodes.
	// Frame coalescing across co-located processes must not change a
	// single decision bit.
	Nodes int
	// Jitter/JitterSeed inject deterministic per-link receive latency,
	// to prove timing skew cannot leak into decisions.
	Jitter     time.Duration
	JitterSeed int64
}

// Diff is the differential harness: it executes spec once on the
// lockstep simulator and once on the distributed runtime over a real
// transport replaying the same schedule, and returns an error unless
// the two outcomes are identical — every per-process decision bit,
// decision round, round count, and skeleton measurement. The schedule
// is materialized exactly once, so stateful adversaries feed both
// executions the same run.
func Diff(spec sim.Spec, opts DiffOpts) error {
	if spec.Adversary == nil {
		return fmt.Errorf("runtime: Diff with nil adversary")
	}
	// Resolve against the original adversary, before materialization can
	// change the StabilizationRound answer: both the family's automatic
	// round bound and its normalized options (approx's decide round) key
	// off the genuine stabilization data. Resolve is idempotent, so the
	// Execute calls below re-resolving the spec is a no-op.
	if err := spec.Resolve(); err != nil {
		return fmt.Errorf("runtime: Diff resolve: %w", err)
	}
	spec.Adversary = adversary.MaterializeRun(spec.Adversary, spec.MaxRounds)

	want, err := sim.Execute(spec)
	if err != nil {
		return fmt.Errorf("runtime: Diff reference execution: %w", err)
	}
	rt := spec
	ro := RunnerOpts{
		Kind:       opts.Kind,
		Nodes:      opts.Nodes,
		Jitter:     opts.Jitter,
		JitterSeed: opts.JitterSeed,
		Algorithm:  spec.Algorithm,
	}
	if ro.kind() == "udp" {
		ro.UDP = transport.UDPOpts{RoundTimeout: 250 * time.Millisecond, Grace: 2 * time.Millisecond}
	}
	rt.Runner = NewRunner(ro)
	got, err := sim.Execute(rt)
	if err != nil {
		return fmt.Errorf("runtime: Diff runtime execution: %w", err)
	}
	if err := CompareOutcomes(want, got); err != nil {
		return fmt.Errorf("runtime diverged from simulator: %w", err)
	}
	return nil
}

// CompareOutcomes reports the first difference between a simulator
// outcome and a runtime outcome of the same spec, or nil if they are
// identical in every decision-relevant field.
func CompareOutcomes(want, got *sim.Outcome) error {
	if want.N != got.N {
		return fmt.Errorf("n: sim %d, runtime %d", want.N, got.N)
	}
	if want.Rounds != got.Rounds {
		return fmt.Errorf("rounds executed: sim %d, runtime %d", want.Rounds, got.Rounds)
	}
	for i := 0; i < want.N; i++ {
		if want.Decided[i] != got.Decided[i] {
			return fmt.Errorf("p%d decided: sim %v, runtime %v", i+1, want.Decided[i], got.Decided[i])
		}
		if !want.Decided[i] {
			continue
		}
		if want.Decisions[i] != got.Decisions[i] {
			return fmt.Errorf("p%d decision: sim %d, runtime %d", i+1, want.Decisions[i], got.Decisions[i])
		}
		if want.DecideRounds[i] != got.DecideRounds[i] {
			return fmt.Errorf("p%d decision round: sim %d, runtime %d", i+1, want.DecideRounds[i], got.DecideRounds[i])
		}
	}
	if want.RST != got.RST {
		return fmt.Errorf("r_ST: sim %d, runtime %d", want.RST, got.RST)
	}
	if want.RootComps != got.RootComps {
		return fmt.Errorf("root components: sim %d, runtime %d", want.RootComps, got.RootComps)
	}
	if want.MinK != got.MinK {
		return fmt.Errorf("MinK: sim %d, runtime %d", want.MinK, got.MinK)
	}
	if !want.Skeleton.Equal(got.Skeleton) {
		return fmt.Errorf("stable skeleton: sim %v, runtime %v", want.Skeleton, got.Skeleton)
	}
	if want.Meter.Messages > 0 || got.Meter.Messages > 0 {
		if want.Meter != got.Meter {
			return fmt.Errorf("wire meter: sim %+v, runtime %+v", want.Meter, got.Meter)
		}
	}
	return nil
}

// NamedSchedule is one entry of the E1–E16 schedule suite.
type NamedSchedule struct {
	// Name identifies the experiment family the schedule is drawn from.
	Name string
	// Spec is ready to Execute (Adversary, Proposals, Params set).
	Spec sim.Spec
}

// ScheduleSuite returns one representative schedule per experiment
// family E1–E16 (DESIGN.md §3), parameterized by n where the family
// allows it (fixed-size constructions like Figure 1 and the E10 witness
// keep their intrinsic n). It is the corpus the differential harness
// replays: if the runtime diverges from the simulator anywhere, it
// should diverge here.
func ScheduleSuite(n int, seed int64) []NamedSchedule {
	rng := rand.New(rand.NewSource(seed))
	if n < 4 {
		n = 4
	}
	k := n / 2
	if k < 2 {
		k = 2
	}
	crashRun, _ := adversary.RandomCrashes(n, (n-1)/3, 3, rng)
	suite := []NamedSchedule{
		{"E1-figure1", sim.Spec{Adversary: adversary.Figure1(), Proposals: sim.SeqProposals(6)}},
		{"E2-rooted-skeleton", spec(adversary.RandomSources(n, 1+rng.Intn(n), n/2, 0.25, rng))},
		{"E3-lowerbound", spec(adversary.LowerBound(n, k))},
		{"E4-noisy-sources", spec(adversary.RandomSources(n, 1+rng.Intn(3), 2*n, 0.3, rng))},
		{"E5-metered", metered(adversary.RandomSources(n, 1+rng.Intn(3), n/2, 0.3, rng))},
		{"E6-crashes", spec(crashRun)},
		{"E7-single-source", spec(adversary.RandomSingleSource(n, rng.Intn(n), 0.2, 0.2, rng))},
		{"E8-eventual-isolation", spec(adversary.Eventual(adversary.Complete(n), n/2))},
		{"E9-merge-own-graph", withOpts(adversary.RandomSources(n, 2, n/2, 0.25, rng), core.Options{MergeOwnGraph: true})},
		{"E9-purge-2n", withOpts(adversary.RandomSources(n, 2, n/2, 0.25, rng), core.Options{PurgeWindow: 2 * n})},
		{"E10-witness", sim.Spec{Adversary: adversary.ConsensusViolation(), Proposals: adversary.ConsensusViolationProposals()}},
		{"E10-witness-repaired", sim.Spec{
			Adversary: adversary.ConsensusViolation(),
			Proposals: adversary.ConsensusViolationProposals(),
			Params:    core.Options{ConservativeDecide: true},
		}},
		{"E11-churn", spec(adversary.NewChurn(adversary.Complete(n).Base(), 0.15, rng.Int63()))},
		{"E12-mobile", spec(adversary.NewMobileRoundRobin(n, 1, n, rng.Int63()))},
		{"E13-tinterval", spec(adversary.NewTInterval(n, 4, 4*n, 3, rng.Int63()))},
		{"E14-partition-merge", spec(adversary.NewPartitionMerge(n, min(4, n), 2, rng.Int63()))},
		{"E15-vertex-stable-root", spec(adversary.NewVertexStableRoot(n, max(1, n/4), 0.3, rng.Int63()))},
		{"E16-scaling-sources", spec(adversary.RandomSources(n, 1+rng.Intn(4), n, 0.2, rng))},
	}
	return suite
}

func spec(adv rounds.Adversary) sim.Spec {
	return sim.Spec{Adversary: adv, Proposals: sim.SeqProposals(adv.N())}
}

func metered(adv rounds.Adversary) sim.Spec {
	s := spec(adv)
	s.MeterMessages = true
	return s
}

func withOpts(adv rounds.Adversary, opts core.Options) sim.Spec {
	s := spec(adv)
	s.Params = opts
	return s
}
