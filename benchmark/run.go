package main

import (
	"fmt"
	"math/rand"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/runtime"
	"kset/internal/sim"
	"kset/internal/stats"
	"kset/internal/transport"
)

// runWorkload is one run_* or sim_* workload: repeated sim.Execute
// calls on one kind of executor. An operation ("rep") is one call.
type runWorkload struct {
	name string
	n    int
	mesh mesh // executor kind, node grouping, injected loss
	// rounds is the length of one fixed-length run (RunToCompletion);
	// 0 selects the hub-cluster run, which executes to decision.
	rounds      int
	smokeRounds int
	smokeN      int // the hub run's n under -smoke
}

// The reserved rep numbers of the two set-up operations; timed reps
// count up from 0.
const (
	verifyRep = -1
	warmupRep = -2
)

func (w runWorkload) Name() string { return w.name }

// spec generates rep's inputs from the seed: the run to execute and the
// mesh to execute it on.
func (w runWorkload) spec(cfg *config, rep int) (sim.Spec, mesh) {
	opSeed := adversary.MixSeed(cfg.seed, rep)
	rng := rand.New(rand.NewSource(opSeed))
	m := w.mesh
	m.lossSeed = opSeed
	if w.rounds == 0 {
		n := w.n
		if cfg.smoke {
			n = w.smokeN
		}
		// The E20 shape: 4 hub clusters, 8 noisy rounds, noise density 2/n.
		adv := adversary.HubClusters(n, 4, 8, 2/float64(n), rng)
		return sim.Spec{Adversary: adv, Proposals: sim.SeqProposals(n)}, m
	}
	length := w.rounds
	if cfg.smoke {
		length = w.smokeRounds
	}
	return sim.Spec{
		Adversary:       adversary.RandomSingleSource(w.n, 0, 0.2, 0, rng),
		Proposals:       sim.SeqProposals(w.n),
		MaxRounds:       length,
		RunToCompletion: true,
	}, m
}

// verify is the untimed verification operation of a set-up: the live
// run must equal the lockstep simulator bit for bit (runtime.Diff), or,
// on UDP where datagrams may really be lost, equal the simulator on the
// heard-sets the wire realized and keep the k-bound there
// (runtime.LossReplay). The lockstep workload answers to the family's
// oracles and the hub shape's known skeleton.
func (w runWorkload) verify(cfg *config) error {
	spec, m := w.spec(cfg, verifyRep)
	switch m.kind {
	case "sim":
		out, err := sim.Execute(spec)
		if err != nil {
			return err
		}
		return w.check(spec, m, out)
	case "udp":
		rep, err := runtime.LossReplay(spec, runtime.LossReplayOpts{
			Nodes: m.nodes, UDP: m.udp, Loss: m.loss, LossSeed: m.lossSeed,
		})
		if err != nil {
			return err
		}
		if !rep.KBound {
			return fmt.Errorf("%d distinct decisions exceed the realized MinK %d", rep.Distinct, rep.Replay.MinK)
		}
		if m.loss == 0 && rep.LostLinks != 0 {
			// Not a failure (the algorithm tolerates loss and the replay
			// proved this run), but worth seeing on a lossless workload.
			fmt.Fprintf(cfg.log, "%s: verification run lost %d links with no loss injected\n", w.name, rep.LostLinks)
		}
		return nil
	default:
		return runtime.Diff(spec, runtime.DiffOpts{Kind: m.kind, Nodes: m.nodes})
	}
}

// check is the output check of one operation.
func (w runWorkload) check(spec sim.Spec, m mesh, out *sim.Outcome) error {
	if spec.RunToCompletion && out.Rounds != spec.MaxRounds {
		return fmt.Errorf("executed %d rounds, want %d", out.Rounds, spec.MaxRounds)
	}
	if m.kind == "udp" {
		return checkRealized(spec, m.meter, out)
	}
	if v := out.CheckAlgorithm(); len(v) != 0 {
		return fmt.Errorf("oracle violated: %v", v[0])
	}
	if w.rounds == 0 && (out.MinK != 4 || out.RootComps != 1) {
		return fmt.Errorf("hub skeleton has MinK %d and %d root components, want 4 and 1", out.MinK, out.RootComps)
	}
	return nil
}

// checkRealized checks a live UDP run against the round model on the
// communication the wire actually delivered, as runtime.LossReplay
// does: a datagram that misses the round deadline is a sparser round
// graph, not an error, so the oracles apply to the realized run. The
// lockstep simulator replays the metered heard-sets; every decision,
// decision round and the round count must match the live run, and the
// replay must satisfy the family's oracles on the realized skeleton.
func checkRealized(spec sim.Spec, meter *transport.HeardMeter, live *sim.Outcome) error {
	realized := meter.Graphs()
	if len(realized) != live.Rounds || live.Rounds < 1 {
		return fmt.Errorf("meter recorded %d rounds, live run executed %d", len(realized), live.Rounds)
	}
	replay := spec
	replay.Runner = nil
	replay.Adversary = adversary.NewRun(realized[:live.Rounds-1], realized[live.Rounds-1])
	replay.MaxRounds = live.Rounds
	want, err := sim.Execute(replay)
	if err != nil {
		return fmt.Errorf("replay of the realized run: %w", err)
	}
	if want.Rounds != live.Rounds {
		return fmt.Errorf("replay executed %d rounds, live %d", want.Rounds, live.Rounds)
	}
	for i := 0; i < live.N; i++ {
		if want.Decided[i] != live.Decided[i] ||
			(want.Decided[i] && (want.Decisions[i] != live.Decisions[i] || want.DecideRounds[i] != live.DecideRounds[i])) {
			return fmt.Errorf("p%d: live run and replay of the realized heard-sets disagree", i+1)
		}
	}
	if v := want.CheckAlgorithm(); len(v) != 0 {
		return fmt.Errorf("oracle violated on the realized run: %v", v[0])
	}
	return nil
}

// tracing is the state of a traced window. A nil *tracing means tracing
// is off: timed just calls, execute runs the plain executor.
type tracing struct {
	rec    *recorder
	window int // the root span every operation hangs under
	totals layerTotals
}

func newTracing() *tracing {
	rec := newRecorder()
	return &tracing{rec: rec, window: rec.begin("bench.window", -1, 0)}
}

// timed runs fn, as a span under the window when tracing is on.
func (tr *tracing) timed(name string, run int, fn func()) {
	if tr == nil {
		fn()
		return
	}
	tr.rec.timed(name, tr.window, run, fn)
}

// execute is sim.Execute of spec on m. With tracing on, the run is
// decorated at every layer boundary, hangs under one sim.execute span,
// and its accumulators are returned after being added to the totals.
func (tr *tracing) execute(spec sim.Spec, m mesh, run int) (*sim.Outcome, *opTrace, error) {
	if tr == nil {
		spec.Runner = m.runner()
		out, err := sim.Execute(spec)
		return out, nil, err
	}
	id := tr.rec.begin("sim.execute", tr.window, run)
	ot := newOpTrace(tr.rec, run, id, m.algorithm, spec.Adversary.N())
	if m.algorithm != algo.Approx {
		ot.probe = &graphProbe{rec: tr.rec}
	}
	spec.Runner = ot.runner(m)
	out, err := sim.Execute(spec)
	tr.rec.end(id)
	tr.totals.absorb(ot)
	return out, ot, err
}

// execute runs one operation, timed around the sim.Execute call, and
// checks its output.
func (w runWorkload) execute(cfg *config, rep int, tr *tracing) (wall time.Duration, executed int, err error) {
	var spec sim.Spec
	var m mesh
	tr.timed("adversary.build", rep, func() { spec, m = w.spec(cfg, rep) })
	if m.kind == "udp" {
		m.meter = transport.NewHeardMeter(spec.Adversary.N())
	}
	start := time.Now()
	out, _, err := tr.execute(spec, m, rep)
	wall = time.Since(start)
	if err != nil {
		return wall, 0, err
	}
	tr.timed("bench.check", rep, func() { err = w.check(spec, m, out) })
	return wall, out.Rounds, err
}

// setup is one set-up: the verification operation, then one full
// warm-up operation.
func (w runWorkload) setup(cfg *config) error {
	if err := w.verify(cfg); err != nil {
		return fmt.Errorf("verification run: %w", err)
	}
	if _, _, err := w.execute(cfg, warmupRep, nil); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	return nil
}

// repStats are the samples of one timed window of operations.
type repStats struct {
	wallMs  []float64 // wall of each good operation's sim.Execute call
	rates   []float64 // its rounds per second
	nextRep int
}

// window runs operations until d has passed (and at least minReps).
func (w runWorkload) window(cfg *config, d time.Duration, tr *tracing, st *repStats, res *result) {
	const minReps = 2
	start := time.Now()
	for done := 0; done < minReps || time.Since(start) < d; done++ {
		rep := st.nextRep
		st.nextRep++
		res.attempt(1)
		wall, executed, err := w.execute(cfg, rep, tr)
		if err != nil {
			res.fail("rep %d: %v", rep, err)
			continue
		}
		st.wallMs = append(st.wallMs, wall.Seconds()*1e3)
		st.rates = append(st.rates, float64(executed)/wall.Seconds())
	}
}

// endToEnd fills the end-to-end values from a window's samples.
func (st *repStats) endToEnd(v map[string]float64) {
	if len(st.wallMs) == 0 {
		return
	}
	busyMs := 0.0
	for _, ms := range st.wallMs {
		busyMs += ms
	}
	v["sessions_per_s"] = float64(len(st.wallMs)) / (busyMs / 1e3)
	v["session_p50_ms"] = stats.Median(st.wallMs)
	v["rounds_per_s"] = stats.Median(st.rates)
}

// Measure implements workload.
func (w runWorkload) Measure(cfg *config) (*result, error) {
	res := &result{}
	setupS, err := medianSetup(cfg, func(last bool) error { return w.setup(cfg) })
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		var st repStats
		w.window(cfg, window, nil, &st, res)
		v := map[string]float64{"setup_s": setupS}
		st.endToEnd(v)
		res.setMetrics(endToEnd, v)
		return res, nil
	}

	// Traced run: a third of the window untraced, as the reference the
	// tracing overhead is measured against, then the traced operations.
	var ref, st repStats
	w.window(cfg, window/3, nil, &ref, res)
	st.nextRep = ref.nextRep
	tr := newTracing()
	mem := startMemWindow()
	w.window(cfg, window-window/3, tr, &st, res)
	tr.rec.end(tr.window)
	extra := map[string]float64{"bench.samples": float64(len(st.wallMs))}
	mem.finish(len(st.wallMs), extra)
	if len(ref.rates) > 0 && len(st.rates) > 0 {
		r := stats.Median(ref.rates)
		extra["bench.trace_overhead_pct"] = 100 * (r - stats.Median(st.rates)) / r
	}
	if err := finishTrace(cfg, w.name, tr, extra, res); err != nil {
		return nil, err
	}
	return res, nil
}
