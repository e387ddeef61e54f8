package runtime

import (
	"errors"
	"fmt"
	"time"

	"kset/internal/adversary"
	"kset/internal/sim"
	"kset/internal/transport"
)

// DiffOpts and LossReplayOpts are RunnerOpts: the harnesses take the one
// description of a live run. The two names exist only because the frozen
// benchmark module spells them.
type (
	DiffOpts       = RunnerOpts
	LossReplayOpts = RunnerOpts
)

// harnessOwned rejects a caller who set a field the harnesses fill in
// themselves, rather than silently overwriting it: the codec's family
// comes from the spec, and the replay harnesses (replay true) record the
// run on a meter of their own. Diff (replay false) takes no crash plan:
// nobody crashes in the reference it compares against.
func (o RunnerOpts) harnessOwned(replay bool) error {
	switch {
	case o.Algorithm != "":
		return errors.New("runtime: the harness takes Algorithm from the spec; it must be empty")
	case replay && (o.Meter != nil || o.UDP.Meter != nil):
		return errors.New("runtime: the replay harness owns the heard meter; Meter and UDP.Meter must be nil")
	case !replay && o.Crash != nil:
		return errors.New("runtime: Diff's reference run crashes nobody; Crash must be nil (use CrashReplay)")
	}
	return nil
}

// QuietLoopbackUDP returns the UDP timing for runs that must be
// replayable rather than fast — Diff's replay and the service's sessions:
// with a 250ms round deadline and 2ms grace a quiet loopback effectively
// never loses a frame, while the algorithm still tolerates any loss that
// does occur.
func QuietLoopbackUDP() transport.UDPOpts {
	return transport.UDPOpts{RoundTimeout: 250 * time.Millisecond, Grace: 2 * time.Millisecond}
}

// Diff is the differential harness: it executes spec once on the
// lockstep simulator and once on the distributed runtime over a real
// transport replaying the same schedule, and returns an error unless
// the two outcomes are identical — every per-process decision bit,
// decision round, round count, and skeleton measurement. The schedule
// is materialized exactly once, so stateful adversaries feed both
// executions the same run.
//
// opts says what the replay runs over. Stall there proves timing skew
// (processes sending late, the others already gathering) cannot leak into
// decisions, Nodes that frame coalescing across co-located processes
// changes no decision bit; a UDP replay with no RoundTimeout of its own
// gets QuietLoopbackUDP's timing, so the comparison stays bit-exact.
func Diff(spec sim.Spec, opts RunnerOpts) error {
	if spec.Adversary == nil {
		return fmt.Errorf("runtime: Diff with nil adversary")
	}
	if err := opts.harnessOwned(false); err != nil {
		return err
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
	opts.Algorithm = spec.Algorithm
	if opts.UDP.RoundTimeout == 0 {
		quiet := QuietLoopbackUDP()
		opts.UDP.RoundTimeout, opts.UDP.Grace = quiet.RoundTimeout, quiet.Grace
	}
	rt.Runner = NewRunner(opts)
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
