package runtime

import (
	"errors"
	"fmt"
	"time"

	"kset/internal/adversary"
	"kset/internal/graph"
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

// QuietLoopbackUDP returns the UDP timing for runs that must be
// replayable rather than fast — Diff's live run and the service's sessions:
// with a 250ms round deadline and 2ms grace a quiet loopback effectively
// never loses a frame, while the algorithm still tolerates any loss that
// does occur.
func QuietLoopbackUDP() transport.UDPOpts {
	return transport.UDPOpts{RoundTimeout: 250 * time.Millisecond, Grace: 2 * time.Millisecond}
}

// Diff is the differential harness for a run that must lose nothing: it
// is CrashReplay with nobody crashing, which compares the live outcome
// with the simulator's run of the schedule in full — every per-process
// decision bit, decision round, round count, and skeleton measurement
// (CompareOutcomes) — and it fails if the live run lost a scheduled
// delivery, since the schedule is then not the run that happened
// (LossReplay checks such a run).
//
// opts says what the live run runs over. Stall there proves timing skew
// (processes sending late, the others already gathering) cannot leak into
// decisions, Nodes that frame coalescing across co-located processes
// changes no decision bit; a UDP run with no RoundTimeout of its own
// gets QuietLoopbackUDP's timing, so it stays lossless.
func Diff(spec sim.Spec, opts RunnerOpts) error {
	if opts.Crash != nil {
		return errors.New("runtime: Diff's reference run crashes nobody; Crash must be nil (use CrashReplay)")
	}
	if opts.UDP.RoundTimeout == 0 {
		quiet := QuietLoopbackUDP()
		opts.UDP.RoundTimeout, opts.UDP.Grace = quiet.RoundTimeout, quiet.Grace
	}
	rep, err := CrashReplay(spec, opts)
	if rep != nil && rep.LostLinks > 0 {
		return fmt.Errorf("runtime: Diff's live run lost %d scheduled deliveries, so it is not the scheduled run (use LossReplay)", rep.LostLinks)
	}
	return err
}

// CompareOutcomes reports the first difference between a simulator
// outcome and a runtime outcome of the same spec, or nil if they are
// identical in every decision-relevant field.
func CompareOutcomes(want, got *sim.Outcome) error {
	if want.N != got.N {
		return fmt.Errorf("n: sim %d, runtime %d", want.N, got.N)
	}
	if err := compareDecisions(want, got, nil); err != nil {
		return err
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

// CrashReplayReport is the evidence one crash replay produced.
type CrashReplayReport struct {
	// Live is the outcome of the live run over the real transport.
	Live *sim.Outcome
	// Replay is the lockstep simulator's outcome: on the materialized
	// schedule when the run lost nothing and crashed nobody (verified
	// identical to Live in full), else on the realized heard-sets
	// (verified identical for every surviving process and every
	// pre-crash decision).
	Replay *sim.Outcome
	// Realized holds the per-round heard-set graphs the survivors
	// actually gathered, self-loops restored for the dead (the paper's
	// internally-correct crashed node).
	Realized []*graph.Digraph
	// LostLinks counts scheduled deliveries the wire lost beyond the
	// crash cut (0 on reliable transports).
	LostLinks int
	// Distinct is the number of distinct values decided in the live run
	// (pre-crash decisions of the dead included: a decision is
	// irrevocable even when its process is not).
	Distinct int
	// KBound reports the family's agreement-bound oracle on the live
	// decisions against the replayed skeleton (sim.Outcome.AgreementHolds):
	// for kset Distinct <= Replay.MinK, where a crashed process is an
	// isolated self-looped node and the bound degrades exactly as
	// Theorem 1 prescribes; for approx pairwise adjacency. It is a report
	// field rather than an error because the bound is a theorem only for
	// the repaired decision guard: the E10 witness deliberately violates
	// it under the published guard, and the harness's job there is to
	// detect the violation, not to refuse to measure it.
	KBound bool
}

// CrashReplay is the runtime's one live-vs-simulator procedure; Diff and
// LossReplay are entries to it. The paper's round model captures faults
// only by which messages arrive within a round, so a live run is
// trustworthy exactly when it replays as the round model on the
// heard-sets it realized — with real process deaths (processes gone
// mid-protocol, streams cut, rounds closed by deadline) and real wire
// loss alike.
//
//  1. Resolve the spec's family and materialize its schedule once.
//  2. Run spec live as opts describes, under its crash plan (opts.Crash)
//     and over a metered transport: processes die at their planned
//     rounds and sites, and the meter records exactly which deliveries
//     the survivors gathered.
//  3. Audit containment: realized heard-sets never exceed the schedule
//     restricted by the crash cut — a dead process sends nothing it
//     was not entitled to, nobody hears the dead, and every live
//     gatherer hears itself. What the cut allowed and the wire did not
//     deliver is counted as lost.
//  4. Replay. When nothing was lost and nobody crashed, the realized run
//     is the schedule: the lockstep simulator runs the materialized
//     schedule and the two outcomes must be identical in full
//     (CompareOutcomes). Otherwise it runs the realized graphs (the
//     dead's self-loops restored), and every surviving process's
//     decision bit, value, and round must match the live run, as must a
//     crashed process's decision made before it died (decisions are
//     irrevocable); crashed-undecided processes are exempt, since their
//     replay twins outlive them.
//  5. Evaluate the family's agreement-bound oracle on the live
//     decisions against the replayed skeleton (for kset: distinct
//     decisions against the replay's MinK).
//
// A nil plan crashes nobody. With a silent crash plan on TCP, opts.TCP
// must enable chaos mode, or runChaos rejects the plan (see CrashPlan).
// The harness owns the family and the meter: Algorithm, Meter and
// UDP.Meter must be unset.
//
// A divergence in step 4 returns the report (Realized included) beside
// the error, so the caller can file the realized graphs as a .ksr runfile
// and re-execute the diverging run standalone.
func CrashReplay(spec sim.Spec, opts RunnerOpts) (*CrashReplayReport, error) {
	switch {
	case spec.Adversary == nil:
		return nil, errors.New("runtime: replay with nil adversary")
	case opts.Algorithm != "":
		return nil, errors.New("runtime: the harness takes Algorithm from the spec; it must be empty")
	case opts.Meter != nil || opts.UDP.Meter != nil:
		return nil, errors.New("runtime: the harness owns the heard meter; Meter and UDP.Meter must be nil")
	}
	plan := opts.Crash
	n := spec.Adversary.N()
	if err := plan.validate(n); err != nil {
		return nil, err
	}
	if plan.crashes() >= n {
		return nil, fmt.Errorf("runtime: crash plan kills all %d processes; need a survivor to meter the run", n)
	}
	// Resolve against the original adversary, before materialization can
	// change the StabilizationRound answer: the family's automatic round
	// bound and its normalized options (approx's decide round) key off
	// the genuine stabilization data, and both executions must run them.
	// Resolve is idempotent, so sim.Execute re-resolving is a no-op.
	if err := spec.Resolve(); err != nil {
		return nil, fmt.Errorf("runtime: replay resolve: %w", err)
	}
	sched := adversary.MaterializeRun(spec.Adversary, spec.MaxRounds)
	spec.Adversary = sched

	meter := transport.NewHeardMeter(n)
	live := spec
	opts.Algorithm, opts.Meter = spec.Algorithm, meter
	live.Runner = NewRunner(opts)
	liveOut, err := sim.Execute(live)
	if err != nil {
		return nil, fmt.Errorf("runtime: replay live execution: %w", err)
	}
	realized := meter.Graphs()
	if len(realized) != liveOut.Rounds {
		return nil, fmt.Errorf("runtime: meter recorded %d rounds, live run executed %d", len(realized), liveOut.Rounds)
	}
	if liveOut.Rounds < 1 {
		return nil, fmt.Errorf("runtime: live run executed no rounds")
	}

	// Containment under the crash cut: the wire can only lose scheduled
	// deliveries, never invent them. A receiver that is dead (or dying
	// this round — a crashing process never gathers its crash round)
	// records nothing, so only live gatherers are audited for loss; and a
	// live gatherer always hears itself — self-delivery is unconditional
	// in the model and on every transport, so its absence is an error,
	// not a lost link.
	lost := 0
	sent := graph.NewNodeSet(n) // the receivers the schedule and the cut leave a sender
	for r := 1; r <= liveOut.Rounds; r++ {
		g, want := realized[r-1], sched.Graph(r)
		for p := 0; p < n; p++ {
			sent.CopyFrom(want.OutRow(p))
			sent.Add(p)
			plan.cut(r, p, sent)
			for q := 0; q < n; q++ {
				gathering := plan == nil || plan.Round[q] == 0 || r < plan.Round[q]
				switch got := g.HasEdge(p, q); {
				case gathering && p == q && !got:
					return nil, fmt.Errorf("runtime: round %d: p%d gathered without hearing itself", r, q+1)
				case !gathering && got:
					return nil, fmt.Errorf("runtime: round %d: dead p%d recorded a delivery from p%d", r, q+1, p+1)
				case gathering && got && !sent.Has(q):
					return nil, fmt.Errorf("runtime: round %d: wire delivered p%d->p%d through a cut link", r, p+1, q+1)
				case gathering && !got && sent.Has(q):
					lost++
				}
			}
		}
	}

	lossless := lost == 0 && plan.crashes() == 0
	replay := spec
	replay.Runner = nil
	if !lossless {
		// Restore the dead processes' self-loops: a crashed node stays
		// internally correct in the paper's model (it hears itself), it
		// just stopped recording. Every other edge of the dead stays
		// absent, so the replay twin of a dead process runs on in isolation.
		for _, g := range realized {
			g.AddSelfLoops()
		}
		replay.Adversary = adversary.NewRun(realized[:liveOut.Rounds-1], realized[liveOut.Rounds-1])
		replay.MaxRounds = liveOut.Rounds
	}
	replayOut, err := sim.Execute(replay)
	if err != nil {
		return nil, fmt.Errorf("runtime: replay reference execution: %w", err)
	}

	rep := &CrashReplayReport{
		Live:      liveOut,
		Replay:    replayOut,
		Realized:  realized,
		LostLinks: lost,
	}
	if lossless {
		err = CompareOutcomes(replayOut, liveOut)
	} else {
		err = compareDecisions(replayOut, liveOut, plan)
	}
	if err != nil {
		return rep, fmt.Errorf("runtime diverged from simulator: %w", err)
	}
	// The verdict is the family's own oracle on the live decisions — a
	// process that died undecided is undecided there, hence exempt —
	// against the skeleton the replay left.
	judged := *liveOut
	judged.Skeleton, judged.RootComps, judged.MinK = replayOut.Skeleton, replayOut.RootComps, replayOut.MinK
	rep.Distinct = len(liveOut.DistinctDecisions())
	rep.KBound = judged.AgreementHolds()
	return rep, nil
}

// compareDecisions reports the first difference in round count, or in a
// process's decision bit, value or round, between a simulator and a
// runtime outcome. A process plan killed before it decided is exempt: its
// simulator twin outlives it and may decide.
func compareDecisions(want, got *sim.Outcome, plan *CrashPlan) error {
	if want.Rounds != got.Rounds {
		return fmt.Errorf("rounds executed: sim %d, runtime %d", want.Rounds, got.Rounds)
	}
	for i := range want.Decided {
		if !got.Decided[i] && plan != nil && plan.Round[i] != 0 {
			continue
		}
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
	return nil
}

// LossReplay is CrashReplay with nobody crashing, over UDP — the
// differential harness for the best-effort transport, where a datagram
// may really be lost. To the round model a lost datagram and a dead
// sender are the same missing edge, so one harness body checks both.
// opts.Kind may be left empty; any other transport, or a crash plan, is
// an error.
func LossReplay(spec sim.Spec, opts RunnerOpts) (*CrashReplayReport, error) {
	if opts.Kind != "" && opts.Kind != "udp" {
		return nil, fmt.Errorf("runtime: LossReplay runs over udp; Kind is %q", opts.Kind)
	}
	if opts.Crash != nil {
		return nil, errors.New("runtime: LossReplay crashes nobody; Crash must be nil (use CrashReplay)")
	}
	opts.Kind = "udp"
	return CrashReplay(spec, opts)
}
