package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/approx"
	"kset/internal/core"
	"kset/internal/predicate"
	"kset/internal/rounds"
	"kset/internal/service"
	"kset/internal/sim"
	"kset/internal/skeleton"
)

// The service builds a session's run from its spec with unexported
// helpers. The two functions below rebuild the same run from the public
// constructors those helpers compose, for the families the svc
// workloads submit. They serve two purposes: the set-up's verification
// compares every verified session's decisions against the lockstep
// simulator on the rebuilt run (which also proves the rebuild
// faithful), and the traced run re-executes a sample of sessions
// through decorated layers to split a session's cost into phases.

// sessionAdversary is the schedule of a session.
func sessionAdversary(spec service.SessionSpec) (rounds.Adversary, error) {
	n := spec.N
	rng := rand.New(rand.NewSource(spec.Seed))
	switch spec.Family {
	case "complete":
		return adversary.Complete(n), nil
	case "rooted":
		return adversary.RandomSources(n, max(spec.Roots, 1), spec.Noisy, 0.25, rng), nil
	case "single_source":
		return adversary.RandomSingleSource(n, spec.Noisy, 0.2, 0.2, rng), nil
	case "lowerbound":
		return adversary.LowerBound(n, n/2), nil // n >= 4 on these workloads, so 2 <= k < n
	case "partition_merge":
		return adversary.NewPartitionMerge(n, min(4, n), 2, spec.Seed), nil
	case "vertex_stable":
		return adversary.NewVertexStableRoot(n, max(1, n/4), 0.3, spec.Seed), nil
	}
	return nil, fmt.Errorf("family %q is not one the benchmark submits", spec.Family)
}

// sessionSimSpec is the run a session executes, without a runner.
func sessionSimSpec(spec service.SessionSpec, adv rounds.Adversary) sim.Spec {
	out := sim.Spec{
		Adversary: adv,
		Proposals: sim.SeqProposals(spec.N),
		Algorithm: spec.Algorithm,
	}
	if spec.Algorithm == algo.Approx {
		out.Params = approx.Options{Graph: approx.Graph{Shape: approx.Path}}
	} else {
		out.Params = core.Options{ConservativeDecide: true}
	}
	return out
}

// sameAsSimulator checks a finished session against the lockstep
// simulator on the rebuilt run.
func sameAsSimulator(sess service.Session) error {
	adv, err := sessionAdversary(sess.Spec)
	if err != nil {
		return err
	}
	want, err := sim.Execute(sessionSimSpec(sess.Spec, adv))
	if err != nil {
		return err
	}
	got := sess.Result
	if got.Rounds != want.Rounds || got.MinK != want.MinK || got.RST != want.RST {
		return fmt.Errorf("rounds/MinK/RST %d/%d/%d, simulator %d/%d/%d",
			got.Rounds, got.MinK, got.RST, want.Rounds, want.MinK, want.RST)
	}
	for i := range want.Decided {
		if got.Decided[i] != want.Decided[i] || (want.Decided[i] && got.Decisions[i] != want.Decisions[i]) {
			return fmt.Errorf("p%d decided %v %d, simulator %v %d",
				i+1, got.Decided[i], got.Decisions[i], want.Decided[i], want.Decisions[i])
		}
	}
	return nil
}

// replaySession re-executes one session spec through the public
// functions the service composes, every layer decorated, and records
// the phases of a session as spans under tr's window.
func replaySession(spec service.SessionSpec, run int, tr *tracing) error {
	var adv rounds.Adversary
	var err error
	tr.timed("adversary.build", run, func() { adv, err = sessionAdversary(spec) })
	if err != nil {
		return err
	}
	kind := spec.Transport
	if kind == "" {
		kind = "inproc"
	}
	out, ot, err := tr.execute(sessionSimSpec(spec, adv), mesh{kind: kind, algorithm: spec.Algorithm}, run)
	if err != nil {
		return err
	}

	// The skeleton tracker and the MinK bounds run inside sim.Execute,
	// behind no seam a decorator fits; time them again on the same
	// inputs: the schedule the run materialized and its skeleton.
	graphs := ot.adv
	tracker := skeleton.NewTracker(spec.N, false)
	start := tr.rec.now()
	for r := 1; r <= out.Rounds; r++ {
		tracker.Observe(r, graphs.Graph(r))
	}
	observe := calls{first: start, last: tr.rec.now(), n: int64(out.Rounds)}
	observe.ns = observe.last - observe.first
	tr.rec.aggregate("skeleton.observe", tr.window, run, observe, 1)
	tr.timed("predicate.mink", run, func() { predicate.MinKBounds(out.Skeleton) })

	// One poll's JSON: the snapshot a GET serves, encoded as the handler
	// encodes it and decoded as a client decodes it.
	sess := service.Session{ID: "s-000000", Status: "done", Spec: spec, Result: &service.SessionResult{
		Decisions: out.Decisions, Decided: out.Decided, Distinct: out.DistinctDecisions(),
		MinK: out.MinK, KBound: true, AllDecided: true, Rounds: out.Rounds, RST: out.RST,
	}}
	tr.timed("service.json", run, func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err = enc.Encode(sess); err == nil {
			err = json.Unmarshal(buf.Bytes(), &service.Session{})
		}
	})
	if err != nil {
		return err
	}
	tr.timed("bench.check", run, func() {
		if v := out.CheckAlgorithm(); len(v) != 0 {
			err = fmt.Errorf("oracle violated: %v", v[0])
		}
	})
	return err
}
