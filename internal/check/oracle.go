package check

import (
	"fmt"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/sim"
	"kset/internal/skeleton"
)

// observer evaluates the per-round oracles on the executor's observer
// path and the whole-trace oracles in finish. One observer checks one
// run; it reads live process state through the zero-copy core views
// (PTView, ApproxView) so the checked run allocates no more per round
// than an unchecked one does in core.
type observer struct {
	run       *adversary.Run
	cfg       Config
	proposals []int64
	propSet   map[int64]bool
	tracker   *skeleton.Tracker
	stab      int
	stable    *graph.Digraph // exact G^∩∞ of the run
	floor     int            // line-28 decision floor under cfg.Opts
	viols     []Violation

	prev []decisionSnap

	// Reverse-reachability scratch for the prune oracle.
	seen  graph.NodeSet
	stack []int
}

// decisionSnap remembers a process's decision state after the previous
// round, for the irrevocability oracle.
type decisionSnap struct {
	decided bool
	value   int64
	round   int
}

var _ rounds.Observer = (*observer)(nil)

func newObserver(run *adversary.Run, proposals []int64, cfg Config) *observer {
	n := run.N()
	propSet := make(map[int64]bool, len(proposals))
	for _, v := range proposals {
		propSet[v] = true
	}
	// The decision floor is core's to define (n published, 2n-1
	// conservative); read it off a probe process so the oracle can
	// never drift from the algorithm.
	probe := core.NewWithOptions(0, cfg.Opts)
	probe.Init(0, n)
	return &observer{
		run:       run,
		cfg:       cfg,
		proposals: proposals,
		propSet:   propSet,
		tracker:   skeleton.NewTracker(n, false),
		stab:      run.StabilizationRound(),
		stable:    run.StableSkeleton(),
		floor:     probe.DecisionFloor(),
		prev:      make([]decisionSnap, n),
		seen:      graph.NewNodeSet(n),
	}
}

func (o *observer) record(oracle string, round, process int, format string, args ...any) {
	if len(o.viols) >= maxViolations {
		return
	}
	o.viols = append(o.viols, Violation{
		Oracle:  oracle,
		Round:   round,
		Process: process,
		Detail:  fmt.Sprintf(format, args...),
	})
}

// OnRound implements rounds.Observer: it folds the round graph into the
// oracle's own skeleton tracker and evaluates the per-round oracles on
// every Algorithm 1 process.
func (o *observer) OnRound(r int, g *graph.Digraph, procs []rounds.Algorithm) {
	if o.cfg.InvertKBound {
		return // the fire drill evaluates nothing but its negated verdict
	}
	o.tracker.Observe(r, g)

	if r == o.stab {
		if !o.tracker.Skeleton().Equal(o.stable) {
			o.record("skeleton-stability", r, -1,
				"tracker skeleton %v != stable skeleton %v at stabilization round",
				o.tracker.Skeleton(), o.stable)
		}
	}

	if len(o.viols) >= maxViolations {
		return
	}
	for i, a := range procs {
		cp, ok := a.(*core.Process)
		if !ok {
			continue // per-round oracles are Algorithm-1-specific
		}
		o.checkProcess(r, i, cp)
	}
}

// checkProcess evaluates the per-round structural oracles on one
// process's live state.
func (o *observer) checkProcess(r, i int, cp *core.Process) {
	gp := cp.ApproxView()
	pt := cp.PTView()
	self := cp.Self()
	purge := cp.PurgeWindow()

	// Line 15: p itself is always part of its approximation graph.
	if !gp.HasNode(self) {
		o.record("self-present", r, i, "p%d absent from its own Gp", self+1)
	}

	// Label structure and accuracy (Lemma 3/4): every edge label lies in
	// the purge window (r - purge, r]; an edge labeled l existed in the
	// real round-l communication graph; and the label-r edges are exactly
	// the line-17 edges (q -r-> p) for timely senders q.
	gp.ForEachEdge(func(u, v, l int) {
		switch {
		case l < 1 || l > r:
			o.record("label-range", r, i, "edge p%d-%d->p%d outside (0, %d]", u+1, l, v+1, r)
		case l <= r-purge:
			o.record("purge", r, i, "stale edge p%d-%d->p%d survived the purge window %d", u+1, l, v+1, purge)
		case l == r && (v != self || !pt.Has(u)):
			o.record("fresh-label", r, i, "label-%d edge p%d->p%d is not a line-17 PT edge", r, u+1, v+1)
		}
		if !o.run.Graph(l).HasEdge(u, v) {
			o.record("edge-accuracy", r, i, "edge p%d-%d->p%d never existed in round %d", u+1, l, v+1, l)
		}
	})
	pt.ForEach(func(q int) {
		if gp.Label(q, self) != r {
			o.record("pt-edge", r, i, "timely sender p%d lacks the label-%d edge into p%d", q+1, r, self+1)
		}
	})

	// Line 25: every node of Gp reaches p.
	o.checkPrune(r, i, gp, self)

	// Line 9: PTp equals p's in-neighborhood in the round-r skeleton.
	if !o.tracker.PT(self).Equal(pt) {
		o.record("pt-skeleton", r, i, "PT %v != skeleton in-neighborhood %v", pt, o.tracker.PT(self))
	}

	// Line 27 only ever adopts received estimates, so xp is always some
	// process's proposal.
	if !o.propSet[cp.Estimate()] {
		o.record("estimate-validity", r, i, "estimate %d is no process's proposal", cp.Estimate())
	}

	// Decisions are irrevocable: value and round never change.
	if o.prev[i].decided {
		if !cp.Decided() {
			o.record("irrevocability", r, i, "decision revoked")
		} else if v, dr := cp.Decision(); v != o.prev[i].value || dr != o.prev[i].round {
			o.record("irrevocability", r, i, "decision changed from %d@%d to %d@%d",
				o.prev[i].value, o.prev[i].round, v, dr)
		}
	}
	snap := decisionSnap{decided: cp.Decided()}
	if snap.decided {
		snap.value, snap.round = cp.Decision()
	}
	o.prev[i] = snap
}

// checkPrune verifies the line-25 invariant: every present node of Gp
// reaches self. It runs a reverse BFS from self over the labeled graph
// using the observer's scratch, so steady-state checks allocate nothing.
func (o *observer) checkPrune(r, i int, gp *graph.Labeled, self int) {
	o.seen.Clear()
	o.stack = o.stack[:0]
	if gp.HasNode(self) {
		o.seen.Add(self)
		o.stack = append(o.stack, self)
	}
	for len(o.stack) > 0 {
		u := o.stack[len(o.stack)-1]
		o.stack = o.stack[:len(o.stack)-1]
		gp.ForEachNode(func(w int) {
			if !o.seen.Has(w) && gp.HasEdge(w, u) {
				o.seen.Add(w)
				o.stack = append(o.stack, w)
			}
		})
	}
	gp.ForEachNode(func(w int) {
		if !o.seen.Has(w) {
			o.record("prune", r, i, "node p%d cannot reach p%d but survived line 25", w+1, self+1)
		}
	})
}

// finish evaluates the whole-trace oracles on the finished run's outcome
// and returns the Failure, or nil if every oracle held.
func (o *observer) finish(out *sim.Outcome) *Failure {
	if o.cfg.InvertKBound {
		if out.AgreementHolds() {
			o.record("inverted-k-bound", 0, -1,
				"deliberately broken oracle: %d distinct decisions within MinK=%d",
				len(out.DistinctDecisions()), out.MinK)
		}
	} else {
		// Termination, validity, and the k-bound are the algorithm
		// family's own whole-run oracles (internal/algo); the checked spec
		// runs the registered kset family.
		for _, v := range out.CheckAlgorithm() {
			o.record(v.Oracle, 0, -1, "%s", v.Detail)
		}
		if err := out.CheckDecisionFloor(o.floor); err != nil {
			o.record("decision-floor", 0, -1, "%v", err)
		}
	}
	if len(o.viols) == 0 {
		return nil
	}
	oc := out.Outcome
	return &Failure{
		Run:        o.run,
		Proposals:  o.proposals,
		Violations: o.viols,
		Outcome:    &oc,
		MinK:       out.MinK,
		Skeleton:   out.Skeleton,
	}
}
