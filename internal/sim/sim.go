// Package sim is the experiment driver: it wires an adversary, a
// registered algorithm family (internal/algo — Algorithm 1 by default,
// or a baseline), the skeleton tracker, the wire meter, and the outcome
// checker into one call (Execute), and runs parameter sweeps on a worker
// pool (Sweep: whatever a cell computes — an outcome, a verdict, a score —
// reaches the caller in deterministic cell order). All experiment tables in
// EXPERIMENTS.md are produced through this package (see cmd/ksetbench).
package sim

import (
	"fmt"
	"sync"

	"kset/internal/algo"
	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/rounds"
	"kset/internal/skeleton"
	"kset/internal/trace"
	"kset/internal/wire"
)

// Spec describes one simulation.
type Spec struct {
	// Adversary generates the run; required.
	Adversary rounds.Adversary
	// Algorithm names the registered algorithm family to execute; ""
	// means algo.Default ("kset", Algorithm 1). See internal/algo.
	Algorithm string
	// Proposals are the initial values; len must equal Adversary.N().
	Proposals []int64
	// Params carries the algorithm family's options (core.Options for
	// kset, approx.Options for approx); nil means the family defaults.
	// Resolve normalizes it in place.
	Params any
	// NewProcess optionally overrides the algorithm under test (e.g. a
	// baseline); when nil, the registered Algorithm family runs with
	// Proposals and Params.
	NewProcess func(self int) rounds.Algorithm
	// MaxRounds bounds the run; 0 means the family's automatic bound
	// (for kset, generous enough for Lemma 11: stabilization + 2n + 5,
	// or 12n without a Stabilizer).
	MaxRounds int
	// RunToCompletion keeps executing until MaxRounds even after all
	// processes decided (needed when later rounds are inspected).
	RunToCompletion bool
	// Runner, if non-nil, executes the run in place of the lockstep
	// rounds.RunSequential. The distributed runtime plugs in here
	// (runtime.NewRunner), so the whole sim pipeline — skeleton tracker,
	// wire meter, outcome checks — runs unchanged over a real transport;
	// the differential harness compares such runs against the lockstep
	// executor. A Runner is single-use when it owns a transport: build a
	// fresh Spec per Execute call.
	Runner func(rounds.Config) (*rounds.Result, error)
	// MeterMessages measures encoded message sizes through the family's
	// wire codec (for kset, the internal/wire encoding the Section V
	// bit-complexity claim is stated in).
	MeterMessages bool
	// Observer, if non-nil, is notified after every round (in addition
	// to the skeleton tracker the driver installs).
	Observer rounds.Observer
}

// Outcome bundles the decision summary with skeleton- and wire-level
// measurements.
type Outcome struct {
	trace.Outcome
	// RST is the observed stabilization round of the skeleton (last
	// round that removed an edge; >= 1) — the paper's r_ST, the pivot of
	// the Lemma 11 termination bound r_ST + 2n - 1.
	RST int
	// RootComps is the number of root components of the stable skeleton;
	// Theorem 1 bounds it by MinK.
	RootComps int
	// MinK is the smallest k for which Psrcs(k) holds in this run — the
	// tightest decision-diversity bound the paper's theorems give it.
	// Exact for n <= 64 (and whenever the polynomial bounds pin it);
	// above that it is the certified clique-cover upper bound, so
	// distinct decisions <= MinK remains a sound check at every scale
	// (see minKOf).
	MinK int
	// Skeleton is the stable skeleton G^∩∞ of the run.
	Skeleton *graph.Digraph
	// Meter holds wire statistics when Spec.MeterMessages was set.
	Meter wire.Meter
	// Run is the resolved algorithm run (family name, normalized
	// params, stabilization data, round bound) when a registered family
	// executed; nil when Spec.NewProcess overrode the algorithm.
	// CheckAlgorithm evaluates the family's oracles against it.
	Run *algo.Run
}

// meteredAlg is the metering wrapper the executor steps in place of a
// family's process when Spec.MeterMessages is set: it measures each
// outgoing message by encoding it through the family's own codec —
// exactly the bytes the distributed runtime would put on the wire (for
// kset, the Section V bit-complexity claim) — without touching the
// algorithm. Only the executor sees it: Execute hands observers and the
// outcome collector the wrapped processes themselves.
type meteredAlg struct {
	rounds.Algorithm
	// The executors' stop rules (rounds.AllDecided, a crash plan's
	// survivors-decided rule) read decisions off the processes they step.
	rounds.Decider
	mu    *sync.Mutex
	codec algo.Codec
	buf   *[]byte
	meter *wire.Meter
}

// Send implements rounds.Algorithm.
func (m meteredAlg) Send(r int) any {
	msg := m.Algorithm.Send(r)
	m.mu.Lock()
	// Registration self-tests every codec against its family's own
	// messages, so an encode failure here cannot happen in a registered
	// family; an unmetered message is the safe degradation regardless.
	if b, err := m.codec.Encode((*m.buf)[:0], msg); err == nil {
		*m.buf = b
		m.meter.Observe(len(b))
	}
	m.mu.Unlock()
	return msg
}

// meteredFactory wraps a family's process factory with metering and
// records each process it wraps in procs, by id.
func meteredFactory(codec algo.Codec, inner func(int) rounds.Algorithm, procs []rounds.Algorithm, meter *wire.Meter) func(int) rounds.Algorithm {
	var mu sync.Mutex
	buf := new([]byte)
	return func(self int) rounds.Algorithm {
		p := inner(self)
		procs[self] = p
		// Registration rejects a family whose processes are not Deciders.
		return meteredAlg{Algorithm: p, Decider: p.(rounds.Decider), mu: &mu, codec: codec, buf: buf, meter: meter}
	}
}

// Resolve normalizes the spec in place for its registered algorithm
// family: it validates the adversary and proposals, fills Params
// defaults through the family's Prepare hook, and computes the
// automatic MaxRounds bound. Execute calls it internally; the
// differential harness (runtime.Diff) calls it before materializing the
// schedule, so parameter defaults that depend on the adversary's
// stabilization round are identical in both executions. Resolve is
// idempotent.
func (s *Spec) Resolve() error {
	if s.Adversary == nil {
		return fmt.Errorf("sim: nil adversary")
	}
	n := s.Adversary.N()
	if s.NewProcess != nil {
		if s.MaxRounds == 0 {
			// An override (a baseline) runs under Algorithm 1's bound.
			kset := algo.MustLookup(algo.KSet)
			s.MaxRounds = kset.MaxRounds(s.algoRun(kset, n))
		}
		return nil
	}
	if len(s.Proposals) != n {
		return fmt.Errorf("sim: %d proposals for %d processes", len(s.Proposals), n)
	}
	alg, err := algo.Lookup(s.Algorithm)
	if err != nil {
		return err
	}
	s.Algorithm = alg.Name
	run := s.algoRun(alg, n)
	if err := alg.Prepare(&run); err != nil {
		return err
	}
	s.Params = run.Params
	if s.MaxRounds == 0 {
		s.MaxRounds = alg.MaxRounds(run)
	}
	return nil
}

// algoRun assembles the family's run description from the spec and the
// adversary's stabilization data.
func (s *Spec) algoRun(alg *algo.Algorithm, n int) algo.Run {
	run := algo.Run{
		Algorithm: alg.Name,
		N:         n,
		Proposals: s.Proposals,
		Params:    s.Params,
		MaxRounds: s.MaxRounds,
	}
	if st, ok := s.Adversary.(rounds.Stabilizer); ok {
		run.Stabilizes = true
		run.Stab = st.StabilizationRound()
	}
	return run
}

// Execute runs one simulation.
func Execute(spec Spec) (*Outcome, error) {
	if err := spec.Resolve(); err != nil {
		return nil, err
	}
	n := spec.Adversary.N()

	out := &Outcome{}
	tracker := skeleton.NewTracker(n, false)

	factory := spec.NewProcess
	// own holds the family's own processes when the executor steps
	// metering wrappers instead; nil when it steps them directly.
	var own []rounds.Algorithm
	if factory == nil {
		alg := algo.MustLookup(spec.Algorithm)
		run := spec.algoRun(alg, n)
		f, err := alg.NewFactory(run)
		if err != nil {
			return nil, err
		}
		factory = f
		out.Run = &run
		if spec.MeterMessages {
			own = make([]rounds.Algorithm, n)
			factory = meteredFactory(alg.Codec, factory, own, &out.Meter)
		}
	}

	var observer rounds.Observer = tracker
	if spec.Observer != nil {
		observer = rounds.MultiObserver{tracker, spec.Observer}
	}
	if own != nil {
		seen := observer
		observer = rounds.ObserverFunc(func(r int, g *graph.Digraph, _ []rounds.Algorithm) {
			seen.OnRound(r, g, own)
		})
	}
	cfg := rounds.Config{
		Adversary:  spec.Adversary,
		NewProcess: factory,
		MaxRounds:  spec.MaxRounds,
		Observer:   observer,
	}
	if !spec.RunToCompletion {
		cfg.StopWhen = rounds.AllDecided
	}

	runner := rounds.RunSequential
	if spec.Runner != nil {
		runner = spec.Runner
	}
	res, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	if own != nil {
		res.Procs = own
	}

	oc, err := trace.Collect(res)
	if err != nil {
		return nil, err
	}
	out.Outcome = *oc

	// Prefer the adversary's exact stable skeleton (runs may stop before
	// the tracker has seen all transient edges disappear).
	if sp, ok := spec.Adversary.(interface{ StableSkeleton() *graph.Digraph }); ok {
		out.Skeleton = sp.StableSkeleton()
	} else {
		out.Skeleton = tracker.Skeleton()
	}
	out.RST = tracker.LastChange()
	if out.RST < 1 {
		out.RST = 1
	}
	out.RootComps = len(graph.RootComponents(out.Skeleton))
	out.MinK = minKOf(out.Skeleton)
	return out, nil
}

// CheckAlgorithm evaluates the executed family's whole-run oracles
// (validity, agreement/k-bound, termination — as the family defines
// them) against this outcome and returns the violations; nil when every
// oracle held, and nil for NewProcess-override runs, which have no
// registered oracle set. A violation means the algorithm, an executor,
// or a transport broke its contract — internal/check's whole-trace
// oracles and the service's per-session bound verdicts are built on
// this hook.
func (o *Outcome) CheckAlgorithm() []algo.Violation {
	if o.Run == nil {
		return nil
	}
	alg, err := algo.Lookup(o.Run.Algorithm)
	if err != nil || alg.Check == nil {
		return nil
	}
	oc := o.Outcome
	return alg.Check(*o.Run, algo.Facts{
		Outcome:   &oc,
		Skeleton:  o.Skeleton,
		RootComps: o.RootComps,
		MinK:      o.MinK,
	})
}

// AgreementHolds reports whether the executed family's agreement-bound
// oracle held: no "k-bound" violation for kset (distinct decisions <=
// MinK), no "agreement" violation for approx (decisions pairwise
// adjacent, inside the regime that claims it). It is the one reading of
// that verdict — the replay harness, the service's per-session k_bound
// and the model checker's fire drill all go through it.
func (o *Outcome) AgreementHolds() bool {
	for _, v := range o.CheckAlgorithm() {
		if v.Oracle == "k-bound" || v.Oracle == "agreement" {
			return false
		}
	}
	return true
}

// minKOf computes Outcome.MinK. The exact independence-number search is
// exponential in the worst case; past the 64-process single-word bitset
// regime, sparse shares-a-source graphs make it genuinely intractable
// (the n=128 differential suite hit hours-long searches). There the
// polynomial two-sided bounds stand in: when they pin the answer the
// value is still exact, and when they disagree the clique-cover upper
// bound is reported — the smallest k the harness can certify Psrcs(k)
// for in polynomial time. Every k-bound check (distinct decisions <=
// MinK) remains sound either way, because the exact MinK never exceeds
// the reported value.
func minKOf(skel *graph.Digraph) int {
	lo, hi := predicate.MinKBounds(skel)
	if lo == hi || skel.N() > 64 {
		return hi
	}
	return predicate.MinK(skel)
}

// SeqProposals returns the canonical distinct proposal vector
// 1, 2, ..., n.
func SeqProposals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}
