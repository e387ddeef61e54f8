package runtime

import (
	"errors"
	"fmt"

	"kset/internal/adversary"
	"kset/internal/graph"
	"kset/internal/sim"
	"kset/internal/transport"
)

// CrashReplayReport is the evidence one crash replay produced.
type CrashReplayReport struct {
	// Live is the outcome of the chaos run over the real transport.
	Live *sim.Outcome
	// Replay is the lockstep simulator's outcome on the realized
	// heard-sets — verified identical to Live for every surviving
	// process and every pre-crash decision.
	Replay *sim.Outcome
	// Realized holds the per-round heard-set graphs the survivors
	// actually gathered, self-loops restored for the dead (the paper's
	// internally-correct crashed node).
	Realized []*graph.Digraph
	// LostLinks counts scheduled deliveries the wire lost beyond the
	// crash cut (0 on reliable transports).
	LostLinks int
	// Crashed is the number of processes the plan killed.
	Crashed int
	// Distinct is the number of distinct values decided in the live run
	// (pre-crash decisions of the dead included: a decision is
	// irrevocable even when its process is not).
	Distinct int
	// KBound reports the family's agreement-bound oracle on the live
	// decisions against the realized skeleton (sim.Outcome.AgreementHolds):
	// for kset Distinct <= Replay.MinK, where a crashed process is an
	// isolated self-looped node and the bound degrades exactly as
	// Theorem 1 prescribes; for approx pairwise adjacency. It is a report
	// field rather than an error because the bound is a theorem only for
	// the repaired decision guard: the E10 witness deliberately violates
	// it under the published guard, and the harness's job there is to
	// detect the violation, not to refuse to measure it.
	KBound bool
}

// CrashReplay is the differential harness for crash faults, the
// crash-layer analogue of LossReplay: it proves that a distributed run
// with real process deaths — processes gone mid-protocol, streams cut,
// rounds closed by deadline — is still bit-for-bit an execution of the
// paper's round model on the communication pattern the crashes carved
// out.
//
//  1. Run spec live as opts describes, under its crash plan (opts.Crash)
//     and over a metered transport: processes die at their planned
//     rounds and sites, and the meter records exactly which deliveries
//     the survivors gathered.
//  2. Check containment: realized heard-sets never exceed the schedule
//     restricted by the crash cut — a dead process sends nothing it
//     was not entitled to, and nobody hears the dead.
//  3. Replay the realized graphs (self-loops restored) through the
//     lockstep simulator. Every surviving process's decision bit,
//     value, and round must match the live run exactly; a crashed
//     process that decided before dying must match too (decisions are
//     irrevocable). Crashed-undecided processes are exempt: their
//     replay twins outlive them.
//  4. Evaluate the family's agreement-bound oracle on the live
//     decisions against the realized skeleton (for kset: distinct
//     decisions against the replay's MinK).
//
// A nil plan crashes nobody, and the harness is then the loss-only
// replay: LossReplay is exactly that call over UDP. The spec's algorithm
// family is resolved once, up front, so any registered family replays.
// With a silent crash plan on TCP, opts.TCP must enable chaos mode, or
// runChaos rejects the plan (see CrashPlan).
//
// A divergence in step 3 returns the report (Realized included) beside
// the error, so the caller can file the realized graphs as a .ksr runfile
// and re-execute the diverging run standalone.
func CrashReplay(spec sim.Spec, opts RunnerOpts) (*CrashReplayReport, error) {
	if spec.Adversary == nil {
		return nil, fmt.Errorf("runtime: replay with nil adversary")
	}
	if err := opts.harnessOwned(true); err != nil {
		return nil, err
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
	// change the StabilizationRound answer (see Diff): the family's round
	// bound and normalized options must be the ones both executions run.
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

	// Restore the dead processes' self-loops: a crashed node stays
	// internally correct in the paper's model (it hears itself), it just
	// stopped recording. Every other edge of the dead stays absent, so
	// the replay twin of a dead process runs on in isolation.
	for _, g := range realized {
		g.AddSelfLoops()
	}

	replay := spec
	replay.Runner = nil
	replay.Adversary = adversary.NewRun(realized[:liveOut.Rounds-1], realized[liveOut.Rounds-1])
	replay.MaxRounds = liveOut.Rounds
	replayOut, err := sim.Execute(replay)
	if err != nil {
		return nil, fmt.Errorf("runtime: replay reference execution: %w", err)
	}

	rep := &CrashReplayReport{
		Live:      liveOut,
		Replay:    replayOut,
		Realized:  realized,
		LostLinks: lost,
		Crashed:   plan.crashes(),
	}
	if replayOut.Rounds != liveOut.Rounds {
		return rep, fmt.Errorf("runtime: replay executed %d rounds, live %d", replayOut.Rounds, liveOut.Rounds)
	}
	for i := 0; i < n; i++ {
		crashed := plan != nil && plan.Round[i] != 0
		if crashed && !liveOut.Decided[i] {
			continue // died undecided: its replay twin outlives it and may decide
		}
		if liveOut.Decided[i] != replayOut.Decided[i] {
			return rep, fmt.Errorf("runtime: p%d decided: live %v, replay %v", i+1, liveOut.Decided[i], replayOut.Decided[i])
		}
		if !liveOut.Decided[i] {
			continue
		}
		if liveOut.Decisions[i] != replayOut.Decisions[i] {
			return rep, fmt.Errorf("runtime: p%d decision: live %d, replay %d", i+1, liveOut.Decisions[i], replayOut.Decisions[i])
		}
		if liveOut.DecideRounds[i] != replayOut.DecideRounds[i] {
			return rep, fmt.Errorf("runtime: p%d decision round: live %d, replay %d", i+1, liveOut.DecideRounds[i], replayOut.DecideRounds[i])
		}
	}
	// The verdict is the family's own oracle on the live decisions — a
	// process that died undecided is undecided there, hence exempt —
	// against the skeleton the realized graphs left.
	judged := *liveOut
	judged.Skeleton, judged.RootComps, judged.MinK = replayOut.Skeleton, replayOut.RootComps, replayOut.MinK
	rep.Distinct = len(liveOut.DistinctDecisions())
	rep.KBound = judged.AgreementHolds()
	return rep, nil
}

// LossReplay is CrashReplay with nobody crashing, over UDP — the
// differential harness for the best-effort transport, where Diff's
// premise (the realized run equals the scheduled run) does not hold.
// To the round model a lost datagram and a dead sender are the same
// missing edge, so one harness body checks both. opts.Kind may be left
// empty; any other transport, or a crash plan, is an error.
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
