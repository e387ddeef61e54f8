package runtime

import (
	"kset/internal/graph"
	"kset/internal/sim"
	"kset/internal/transport"
)

// LossReplayOpts configures one loss-tolerant differential replay.
type LossReplayOpts struct {
	// Nodes groups the processes onto this many UDP mesh nodes
	// (0 = one per process, the fully distributed shape).
	Nodes int
	// UDP configures the datagram mesh (deadline, grace, datagram size,
	// extra DropDatagram hooks). The Meter field is owned by LossReplay
	// and must be nil.
	UDP transport.UDPOpts
	// Loss injects i.i.d. frame loss with this probability on top of
	// whatever the wire really loses; see RunnerOpts.Loss.
	Loss     float64
	LossSeed int64
}

// LossReplayReport is the evidence one loss-tolerant replay produced.
type LossReplayReport struct {
	// Live is the outcome of the run over the real UDP mesh.
	Live *sim.Outcome
	// Replay is the lockstep simulator's outcome on the realized
	// heard-sets — by the verification in LossReplay, identical to Live
	// in every decision-relevant field.
	Replay *sim.Outcome
	// Realized holds the per-round heard-set graphs the wire actually
	// delivered, as recorded by the transport's meter.
	Realized []*graph.Digraph
	// LostLinks counts scheduled deliveries the wire lost across the
	// whole run (0 on a quiet loopback with no injected loss).
	LostLinks int
	// Distinct is the number of distinct values decided in the live run.
	Distinct int
	// KBound reports Distinct <= Replay.MinK — the paper's agreement
	// bound evaluated against the realized communication pattern. It is
	// a report field rather than an error because the bound is a theorem
	// only for the repaired decision guard: the E10 witness deliberately
	// violates it under the published guard, and the harness's job there
	// is to detect the violation, not to refuse to measure it.
	KBound bool
}

// LossReplay is the differential harness for the best-effort transport,
// where Diff's premise — the realized run equals the scheduled run —
// does not hold: datagrams may be lost, so the heard-sets the processes
// actually observe are known only after the fact. The paper's model has
// no difficulty with that (a lossy round is just a sparser round graph),
// and the replay harness turns the model's view into a checkable
// statement: run spec live over a metered UDP mesh, check that the
// realized heard-sets never exceed the schedule (loss only shrinks
// rounds), re-run the lockstep simulator against the realized graphs and
// require every decision bit, value and round to match, then evaluate
// the paper's agreement bound on the realized run (KBound).
//
// It is CrashReplay with nobody crashing, over UDP: to the round model a
// lost datagram and a dead sender are the same missing edge, so one
// harness body checks both (see CrashReplay for the steps in full).
func LossReplay(spec sim.Spec, opts LossReplayOpts) (*LossReplayReport, error) {
	rep, err := CrashReplay(spec, nil, CrashReplayOpts{
		Kind:     "udp",
		Nodes:    opts.Nodes,
		UDP:      opts.UDP,
		Loss:     opts.Loss,
		LossSeed: opts.LossSeed,
	})
	if err != nil {
		return nil, err
	}
	return &LossReplayReport{
		Live:      rep.Live,
		Replay:    rep.Replay,
		Realized:  rep.Realized,
		LostLinks: rep.LostLinks,
		Distinct:  rep.Distinct,
		KBound:    rep.KBound,
	}, nil
}
