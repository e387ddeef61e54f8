// Package experiments implements the reproduction suite E1-E16 and E20
// defined in DESIGN.md §3: every figure of the paper, every quantitative
// claim of its theorems, the soundness audit of its main proof, the
// classical regimes it cites, the dynamic-network adversary suite
// E13-E16 that probes just outside the paper's eventually-stable model,
// and the E20 multi-word scaling sweep, rendered as measured tables.
// cmd/ksetbench prints these tables (EXPERIMENTS.md records them).
package experiments

import (
	"fmt"

	"kset/internal/adversary"
	"kset/internal/baseline"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/rounds"
	"kset/internal/sim"
)

// Config scales the randomized experiments.
type Config struct {
	// Trials is the number of randomized runs per table cell.
	Trials int
	// Seed feeds all randomized adversaries (experiments are fully
	// deterministic given a seed).
	Seed int64
	// Workers bounds sweep parallelism.
	Workers int
}

// DefaultConfig returns the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config { return Config{Trials: 200, Seed: 20110222, Workers: 8} }

// QuickConfig returns a fast configuration for smoke tests and go test.
func QuickConfig() Config { return Config{Trials: 20, Seed: 20110222, Workers: 4} }

// Result couples a rendered table with machine-checkable pass/fail notes.
type Result struct {
	Name  string
	Table *sim.Table
	// Violations counts property violations observed (must be 0 for a
	// successful reproduction).
	Violations int
	// Notes carries headline numbers for EXPERIMENTS.md.
	Notes []string
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// E1Figure1 reproduces Figure 1: p6's approximation graphs G¹p6..G⁶p6
// label-for-label, with the documented stale-edge deviation in rounds 5-6
// (see DESIGN.md §3).
func E1Figure1() (*Result, error) {
	res := &Result{Name: "E1 Figure 1 (approximation of the stable skeleton)"}
	run := adversary.Figure1()

	// p6's approximation graph after each round, read off the run itself.
	var approxes []*graph.Labeled
	if _, err := sim.Execute(sim.Spec{
		Adversary:       run,
		Proposals:       sim.SeqProposals(6),
		MaxRounds:       8,
		RunToCompletion: true,
		Observer: rounds.ObserverFunc(func(_ int, _ *graph.Digraph, procs []rounds.Algorithm) {
			approxes = append(approxes, procs[5].(*core.Process).Approx())
		}),
	}); err != nil {
		return nil, err
	}

	want := adversary.Figure1LabelMultisets()
	table := sim.NewTable("E1: p6's approximation graphs vs paper Figure 1c-1h",
		"round", "measured labels", "figure labels", "match")
	for r := 1; r <= 8; r++ {
		got := approxes[r-1].LabelMultiset()
		wantStr := "(steady state)"
		match := "exact"
		switch {
		case r <= 4:
			wantStr = fmt.Sprint(want[r-1])
			if fmt.Sprint(got) != wantStr {
				match = "MISMATCH"
				res.Violations++
			}
		case r <= 6:
			wantStr = fmt.Sprint(want[r-1])
			withStale := append(append([]int{}, want[r-1]...), 1)
			if fmt.Sprint(got) != fmt.Sprint(withStale) {
				match = "MISMATCH"
				res.Violations++
			} else {
				match = "exact + 1 stale edge (purged r7)"
			}
		default:
			expect := []int{r, r - 1, r - 2, r - 3}
			if r == 7 {
				// One last transient wave (p5 2->p3 copy) visible at r=7.
				expect = append(expect, 2)
			}
			if fmt.Sprint(got) != fmt.Sprint(expect) {
				match = "MISMATCH"
				res.Violations++
			} else {
				match = "steady chain r,r-1,r-2,r-3"
				if r == 7 {
					match += " + last wave"
				}
			}
		}
		table.AddRow(r, fmt.Sprint(got), wantStr, match)
	}
	res.Table = table

	out, err := sim.Execute(sim.Spec{Adversary: run, Proposals: sim.SeqProposals(6)})
	if err != nil {
		return nil, err
	}
	if err := out.Check(3); err != nil {
		res.Violations++
		res.note("correctness check failed: %v", err)
	}
	res.note("stable skeleton: root components %v, MinK=%d, r_ST=%d",
		rootsString(out.Skeleton), out.MinK, out.RST)
	res.note("decisions: %v in %d rounds (2 values <= k=3)",
		out.DistinctDecisions(), out.Rounds)
	return res, nil
}

func rootsString(skel *graph.Digraph) string {
	roots := graph.RootComponents(skel)
	s := ""
	for i, r := range roots {
		if i > 0 {
			s += " "
		}
		s += r.String()
	}
	return s
}

// E2RootComponents validates Theorem 1 statistically: over random stable
// skeletons, the number of root components never exceeds MinK (the
// smallest k with Psrcs(k)).
func E2RootComponents(cfg Config) (*Result, error) {
	res := &Result{Name: "E2 Theorem 1 (#root components <= k for Psrcs(k) runs)"}
	table := sim.NewTable("E2: root components vs MinK over random skeletons",
		"n", "trials", "mean roots", "mean MinK", "max roots", "violations")
	rng := newRng(cfg.Seed)
	for _, n := range []int{4, 8, 16, 32, 48} {
		var sumRoots, sumK, maxRoots, viol int
		for trial := 0; trial < cfg.Trials; trial++ {
			roots := 1 + rng.Intn(n)
			skel := graph.RandomRootedSkeleton(n, roots, rng)
			rc, minK, ok := predicate.RootComponentBound(skel)
			if !ok {
				viol++
			}
			sumRoots += rc
			sumK += minK
			if rc > maxRoots {
				maxRoots = rc
			}
		}
		res.Violations += viol
		table.AddRow(n, cfg.Trials,
			float64(sumRoots)/float64(cfg.Trials),
			float64(sumK)/float64(cfg.Trials),
			maxRoots, viol)
	}
	res.Table = table
	res.note("Theorem 1 bound #roots <= MinK held in every trial")
	return res, nil
}

// E3LowerBound validates Theorem 2's tightness: Algorithm 1 on the
// lower-bound run decides exactly k distinct values, so Psrcs(k) cannot
// solve (k-1)-set agreement.
func E3LowerBound(cfg Config) (*Result, error) {
	res := &Result{Name: "E3 Theorem 2 (lower bound: exactly k values under Psrcs(k))"}
	table := sim.NewTable("E3: distinct decisions on the Theorem 2 run",
		"n", "k", "distinct", "k-agreement", "(k-1)-agreement")
	for _, n := range []int{4, 8, 16, 32} {
		for _, k := range []int{2, 3, n / 2, n - 1} {
			if k < 2 || k >= n {
				continue
			}
			out, err := sim.Execute(sim.Spec{
				Adversary: adversary.LowerBound(n, k),
				Proposals: sim.SeqProposals(n),
			})
			if err != nil {
				return nil, err
			}
			distinct := len(out.DistinctDecisions())
			kOK := "holds"
			if err := out.Check(k); err != nil {
				kOK = "VIOLATED"
				res.Violations++
			}
			k1 := "violated (expected)"
			if distinct <= k-1 {
				k1 = "HELD (unexpected)"
				res.Violations++
			}
			table.AddRow(n, k, distinct, kOK, k1)
		}
	}
	res.Table = table
	res.note("every (n,k) cell produced exactly k values: the predicate is tight")
	return res, nil
}

// E4DecisionRounds validates Lemma 11's termination bound: every process
// decides by r_ST + 2n - 1.
func E4DecisionRounds(cfg Config) (*Result, error) {
	res := &Result{Name: "E4 Lemma 11 (termination by r_ST + 2n - 1)"}
	table := sim.NewTable("E4: decision rounds vs the Lemma 11 bound",
		"n", "noise prefix", "trials", "mean last decision", "max last decision", "bound", "violations")
	rng := newRng(cfg.Seed + 4)
	for _, n := range []int{4, 8, 16, 32} {
		for _, noisy := range []int{0, n / 2, 2 * n} {
			var sum, max, viol, boundMax int
			for trial := 0; trial < cfg.Trials; trial++ {
				run := adversary.RandomSources(n, 1+rng.Intn(n), noisy, 0.25, rng)
				out, err := sim.Execute(sim.Spec{
					Adversary: run,
					Proposals: sim.SeqProposals(n),
				})
				if err != nil {
					return nil, err
				}
				if err := out.CheckTermination(); err != nil {
					viol++
					continue
				}
				last := out.MaxDecisionRound()
				bound := out.RST + 2*n - 1
				if bound > boundMax {
					boundMax = bound
				}
				if last > bound {
					viol++
				}
				sum += last
				if last > max {
					max = last
				}
			}
			res.Violations += viol
			table.AddRow(n, noisy, cfg.Trials,
				float64(sum)/float64(cfg.Trials), max, boundMax, viol)
		}
	}
	res.Table = table
	res.note("all decisions within r_ST + 2n - 1; root components decide by r_ST + n - 1")
	return res, nil
}

// E5MessageComplexity measures encoded message sizes against the paper's
// "polynomial in n" bit-complexity claim (Section V).
func E5MessageComplexity(cfg Config) (*Result, error) {
	res := &Result{Name: "E5 message bit complexity (polynomial in n)"}
	table := sim.NewTable("E5: wire size of (tag, x, G) messages",
		"n", "avg bytes", "max bytes", "n^2 reference", "max/n^2")
	rng := newRng(cfg.Seed + 5)
	var ns, maxs []float64
	for _, n := range []int{4, 8, 16, 32, 64} {
		run := adversary.RandomSources(n, 1+rng.Intn(3), n/2, 0.3, rng)
		out, err := sim.Execute(sim.Spec{
			Adversary:     run,
			Proposals:     sim.SeqProposals(n),
			MeterMessages: true,
		})
		if err != nil {
			return nil, err
		}
		nn := float64(n * n)
		table.AddRow(n, out.Meter.Avg(), out.Meter.MaxBytes, n*n,
			float64(out.Meter.MaxBytes)/nn)
		ns = append(ns, float64(n))
		maxs = append(maxs, float64(out.Meter.MaxBytes))
	}
	res.Table = table
	exp := powerLaw(ns, maxs)
	res.note("max message bytes grow as ~n^%.2f (polynomial, matching Section V)", exp)
	if exp > 3.0 {
		res.Violations++
		res.note("growth exponent exceeds cubic: unexpected")
	}
	return res, nil
}

// E6Baselines compares Algorithm 1 with FloodMin/FloodSet: both safe
// under crashes (survivor semantics); only Algorithm 1 stays safe on
// Psrcs(k) runs with perpetual message loss, and only Algorithm 1 covers
// crashed-but-internally-correct processes.
func E6Baselines(cfg Config) (*Result, error) {
	res := &Result{Name: "E6 Algorithm 1 vs FloodMin/FloodSet"}
	table := sim.NewTable("E6: distinct decisions per scenario",
		"scenario", "algorithm", "distinct", "guarantee", "verdict")
	rng := newRng(cfg.Seed + 6)

	// Scenario A: crash runs (f = 3 of n = 8, k = 2).
	n, f, k := 8, 3, 2
	worstFMSurv, worstA1 := 0, 0
	for trial := 0; trial < cfg.Trials; trial++ {
		crashRun, sched := adversary.RandomCrashes(n, f, 3, rng)
		fmOut, err := runBaselineFloodMin(crashRun, sim.SeqProposals(n), f, k)
		if err != nil {
			return nil, err
		}
		surv := fmOut.DistinctDecisionsAmong(func(i int) bool { return sched.Rounds[i] == 0 })
		if len(surv) > worstFMSurv {
			worstFMSurv = len(surv)
		}
		a1Out, err := sim.Execute(sim.Spec{Adversary: crashRun, Proposals: sim.SeqProposals(n)})
		if err != nil {
			return nil, err
		}
		if got := len(a1Out.DistinctDecisions()); got > worstA1 {
			worstA1 = got
		}
		if got := len(a1Out.DistinctDecisions()); got > a1Out.MinK {
			res.Violations++
		}
	}
	table.AddRow("crashes f=3, n=8", "FloodMin(f=3,k=2)", worstFMSurv, "<= k among survivors", verdict(worstFMSurv <= k))
	table.AddRow("crashes f=3, n=8", "Algorithm 1", worstA1, "<= MinK for ALL processes", verdict(worstA1 <= n))

	// Scenario B: the Theorem 2 run with descending proposals (the
	// downstream processes hold values smaller than the source's, which
	// the source cannot override — the leak FloodMin has no answer to).
	nb, kb := 8, 3
	lb := adversary.LowerBound(nb, kb)
	desc := make([]int64, nb)
	for i := range desc {
		desc[i] = int64(10 * (nb - i))
	}
	fmOut, err := runBaselineFloodMin(lb, desc, kb, kb)
	if err != nil {
		return nil, err
	}
	fmDistinct := len(fmOut.DistinctDecisions())
	a1Out, err := sim.Execute(sim.Spec{Adversary: lb, Proposals: desc})
	if err != nil {
		return nil, err
	}
	a1Distinct := len(a1Out.DistinctDecisions())
	if a1Distinct > kb {
		res.Violations++
	}
	if fmDistinct <= kb {
		// FloodMin must break here (descending proposals leak).
		res.Violations++
	}
	table.AddRow("Psrcs(3) loss run, n=8", "FloodMin(f=3,k=3)", fmDistinct, "<= 3 (assumes crashes only)", verdict(fmDistinct <= kb)+" (loss ≠ crash)")
	table.AddRow("Psrcs(3) loss run, n=8", "Algorithm 1", a1Distinct, "<= 3 (Psrcs(3))", verdict(a1Distinct <= kb))

	// Scenario C: liveness. OneThirdRule (the Heard-Of model's canonical
	// consensus algorithm) is safe in every run but needs heard-of sets
	// above 2n/3; on the same loss run it never decides, while
	// Algorithm 1 terminates within the Lemma 11 bound.
	otrRes, err := rounds.RunSequential(rounds.Config{
		Adversary:  lb,
		NewProcess: baseline.NewOneThirdRuleFactory(desc),
		MaxRounds:  20 * nb,
	})
	if err != nil {
		return nil, err
	}
	otrDecided := 0
	for _, p := range otrRes.Procs {
		if p.(rounds.Decider).Decided() {
			otrDecided++
		}
	}
	if otrDecided != 0 {
		res.Violations++ // heard-of sets of size <= 2 must stay below 2n/3
	}
	table.AddRow("Psrcs(3) loss run, n=8", "OneThirdRule",
		fmt.Sprintf("undecided after %d rounds", 20*nb),
		"needs |HO| > 2n/3", "never terminates")
	table.AddRow("Psrcs(3) loss run, n=8", "Algorithm 1 (again)",
		fmt.Sprintf("all decide by round %d", a1Out.MaxDecisionRound()),
		"r_ST + 2n - 1", "terminates")
	res.Table = table
	res.note("FloodMin worst survivor diversity under crashes: %d (bound %d)", worstFMSurv, k)
	res.note("on the Psrcs(3) loss run FloodMin decides %d values, Algorithm 1 %d (bound 3)",
		fmDistinct, a1Distinct)
	return res, nil
}

func verdict(ok bool) string {
	if ok {
		return "safe"
	}
	return "VIOLATES"
}

// E7Consensus probes the Section V remark that the algorithm "actually
// solves consensus in sufficiently well-behaved runs". The precise
// well-behavedness condition is MinK = 1 (Psrcs(1): every pair of
// processes shares a perpetual source); there consensus is guaranteed and
// asserted. A single root component alone is NOT sufficient — MinK can
// still exceed 1, and noisy prefixes realize multi-value single-root
// runs; those are reported observationally (and checked against the
// theorem bound distinct <= MinK).
func E7Consensus(cfg Config) (*Result, error) {
	res := &Result{Name: "E7 consensus in well-behaved runs"}
	table := sim.NewTable("E7: consensus on Psrcs(1) runs (universal 2-source)",
		"n", "trials", "published guard: consensus rate", "repaired guard: consensus", "single-root runs: consensus rate")
	rng := newRng(cfg.Seed + 7)
	for _, n := range []int{4, 8, 16, 32, 48} {
		publishedConsensus := 0
		repairedOK := true
		singleRootConsensus := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			// The guaranteed-by-theorem case: universal 2-source,
			// MinK = 1. The published guard can still decide two values
			// (the E10 flaw); the repaired guard must not.
			run := adversary.RandomSingleSource(n, rng.Intn(n), 0.2, 0.2, rng)
			out, err := sim.Execute(sim.Spec{Adversary: run, Proposals: sim.SeqProposals(n)})
			if err != nil {
				return nil, err
			}
			if out.MinK != 1 {
				return nil, fmt.Errorf("E7: single-source run has MinK %d", out.MinK)
			}
			if len(out.DistinctDecisions()) == 1 {
				publishedConsensus++
			}
			outR, err := sim.Execute(sim.Spec{
				Adversary: run,
				Proposals: sim.SeqProposals(n),
				Params:    core.Options{ConservativeDecide: true},
			})
			if err != nil {
				return nil, err
			}
			if len(outR.DistinctDecisions()) != 1 {
				repairedOK = false
				res.Violations++
			}

			// Observational: one root component, unconstrained MinK —
			// consensus is NOT implied (the bound is MinK, checked).
			run2 := adversary.RandomSources(n, 1, rng.Intn(n), 0.2, rng)
			out2, err := sim.Execute(sim.Spec{Adversary: run2, Proposals: sim.SeqProposals(n)})
			if err != nil {
				return nil, err
			}
			if d := len(out2.DistinctDecisions()); d == 1 {
				singleRootConsensus++
			}
		}
		table.AddRow(n, cfg.Trials,
			fmt.Sprintf("%d/%d", publishedConsensus, cfg.Trials),
			repairedOK,
			fmt.Sprintf("%d/%d", singleRootConsensus, cfg.Trials))
	}
	res.Table = table
	res.note("'sufficiently well-behaved' = Psrcs(1) (MinK = 1); the repaired guard always reaches consensus there")
	res.note("the published guard misses consensus on a small fraction of Psrcs(1) runs — the E10 flaw")
	res.note("a single root component alone does not imply consensus (bound is MinK, not 1)")
	return res, nil
}

// E10GuardFlaw isolates the reproduction's main negative finding: the
// published line-28 guard (r >= n) violates k-agreement on runs whose
// skeleton stabilizes after round 1, because approximations in rounds
// [n, r_ST+n-2] can be strongly connected through stale pre-stabilization
// edges. The deterministic 4-process witness satisfies Psrcs(1) yet
// decides two values; raising the guard to r >= 2n-1 repairs it (and
// makes the paper's own Lemma 15 proof sound). See DESIGN.md §2.
func E10GuardFlaw(cfg Config) (*Result, error) {
	res := &Result{Name: "E10 line-28 guard flaw and repair"}
	table := sim.NewTable("E10: the Lemma 15 counterexample and the repaired guard",
		"run", "guard", "decisions", "MinK", "k-agreement")

	witness := adversary.ConsensusViolation()
	props := adversary.ConsensusViolationProposals()
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"published r>=n", core.Options{}},
		{"repaired r>=2n-1", core.Options{ConservativeDecide: true}},
	} {
		out, err := sim.Execute(sim.Spec{Adversary: witness, Proposals: props, Params: variant.opts})
		if err != nil {
			return nil, err
		}
		d := out.DistinctDecisions()
		ok := len(d) <= out.MinK
		verdictStr := verdict(ok)
		if variant.opts.ConservativeDecide {
			if !ok {
				res.Violations++ // the repair must hold
			}
		} else if ok {
			res.Violations++ // the witness must break the published guard
		}
		table.AddRow("4-process witness", variant.name, fmt.Sprint(d), out.MinK, verdictStr)
	}

	// Violation rate on the randomized vulnerable family.
	rng := newRng(cfg.Seed + 10)
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"published r>=n", core.Options{}},
		{"repaired r>=2n-1", core.Options{ConservativeDecide: true}},
	} {
		viol := 0
		worst := 0
		rng2 := newRng(rng.Int63())
		for trial := 0; trial < cfg.Trials; trial++ {
			n := 4 + rng2.Intn(5)
			run := adversary.RandomSingleSource(n, 1+rng2.Intn(n), 0.3, 0.3, rng2)
			out, err := sim.Execute(sim.Spec{Adversary: run, Proposals: sim.SeqProposals(n), Params: variant.opts})
			if err != nil {
				return nil, err
			}
			if d := len(out.DistinctDecisions()); d > out.MinK {
				viol++
				if d > worst {
					worst = d
				}
			}
		}
		if variant.opts.ConservativeDecide && viol > 0 {
			res.Violations += viol
		}
		table.AddRow(fmt.Sprintf("random Psrcs(1) family (%d runs)", cfg.Trials),
			variant.name, fmt.Sprintf("viol. rate %d/%d", viol, cfg.Trials), 1,
			verdict(viol == 0))
	}
	res.Table = table
	res.note("the published guard decides {1,4} on the Psrcs(1) witness (consensus required)")
	res.note("flaw: Lemma 15 applies the round-n Lemma 14 to round-(ri-n+1) components; sound only for ri >= 2n-1")
	res.note("repair: require r >= 2n-1 in line 28 — k-agreement restored, termination bound grows by <= n rounds")
	return res, nil
}

// E8Eventual demonstrates the Section III argument that ♦Psrcs(k) is too
// weak, and why Psrcs(k) must be perpetual: a single round of total
// isolation permanently empties every timely neighborhood (PT sets only
// shrink), so every approximation graph collapses to the singleton {p} —
// trivially strongly connected — and all n processes decide their own
// values in round n. Only the prefix-free run reaches consensus.
func E8Eventual(cfg Config) (*Result, error) {
	res := &Result{Name: "E8 ♦Psrcs is too weak (isolation prefixes)"}
	table := sim.NewTable("E8: distinct decisions vs isolation prefix length (n=8)",
		"prefix", "distinct", "MinK of G^∩∞", "all own values")
	n := 8
	for _, prefix := range []int{0, 1, 2, 4, 8, 12} {
		adv := adversary.Eventual(adversary.Complete(n), prefix)
		out, err := sim.Execute(sim.Spec{Adversary: adv, Proposals: sim.SeqProposals(n)})
		if err != nil {
			return nil, err
		}
		distinct := len(out.DistinctDecisions())
		allOwn := distinct == n
		if prefix >= 1 && !allOwn {
			res.Violations++
		}
		if prefix == 0 && distinct != 1 {
			res.Violations++
		}
		// Sanity: the decisions always respect the run's actual MinK
		// (which jumps to n as soon as one isolated round exists).
		if distinct > out.MinK {
			res.Violations++
		}
		table.AddRow(prefix, distinct, out.MinK, allOwn)
	}
	res.Table = table
	res.note("one isolated round already collapses PT sets to {p}: MinK jumps to n and all processes decide their own values — the predicate must be perpetual")
	return res, nil
}

// E9Ablations measures the two interpretation knobs (DESIGN.md §2):
// merging one's own previous graph, and widening the purge window. Both
// preserve all correctness properties; they change staleness and wire
// size only.
func E9Ablations(cfg Config) (*Result, error) {
	res := &Result{Name: "E9 ablations (own-graph merge, purge window)"}
	table := sim.NewTable("E9: ablations on random Psrcs runs (n=16)",
		"variant", "trials", "mean last decision", "mean max bytes", "correctness")
	rng := newRng(cfg.Seed + 9)
	n := 16
	variants := []struct {
		name string
		opts core.Options
	}{
		{"paper-faithful", core.Options{}},
		{"merge own graph", core.Options{MergeOwnGraph: true}},
		{"purge window n-1", core.Options{PurgeWindow: n - 1}},
		{"purge window 2n", core.Options{PurgeWindow: 2 * n}},
	}
	type seedSpec struct {
		roots, noisy int
		seed         int64
	}
	seeds := make([]seedSpec, cfg.Trials)
	for i := range seeds {
		seeds[i] = seedSpec{roots: 1 + rng.Intn(4), noisy: rng.Intn(n), seed: rng.Int63()}
	}
	for _, v := range variants {
		var sumLast int
		var sumBytes float64
		ok := true
		for _, s := range seeds {
			run := adversary.RandomSources(n, s.roots, s.noisy, 0.25, newRng(s.seed))
			out, err := sim.Execute(sim.Spec{
				Adversary:     run,
				Proposals:     sim.SeqProposals(n),
				Params:        v.opts,
				MeterMessages: true,
			})
			if err != nil {
				return nil, err
			}
			if err := out.Check(out.MinK); err != nil {
				ok = false
				res.Violations++
			}
			sumLast += out.MaxDecisionRound()
			sumBytes += float64(out.Meter.MaxBytes)
		}
		table.AddRow(v.name, cfg.Trials,
			float64(sumLast)/float64(cfg.Trials),
			sumBytes/float64(cfg.Trials),
			verdict(ok))
	}
	res.Table = table
	res.note("all variants satisfy k-agreement/validity/termination; differences are wire size and latency only")
	return res, nil
}

// Experiment is one entry of the reproduction suite.
type Experiment struct {
	// ID is the experiment's EXPERIMENTS.md section ("E5").
	ID string
	// Run executes it under the Config the suite was built with.
	Run func() (*Result, error)
}

// Suite lists the reproduction suite in order — the one list All runs
// and cmd/ksetbench filters.
func Suite(cfg Config) []Experiment {
	with := func(run func(Config) (*Result, error)) func() (*Result, error) {
		return func() (*Result, error) { return run(cfg) }
	}
	return []Experiment{
		{"E1", E1Figure1},
		{"E2", with(E2RootComponents)},
		{"E3", with(E3LowerBound)},
		{"E4", with(E4DecisionRounds)},
		{"E5", with(E5MessageComplexity)},
		{"E6", with(E6Baselines)},
		{"E7", with(E7Consensus)},
		{"E8", with(E8Eventual)},
		{"E9", with(E9Ablations)},
		{"E10", with(E10GuardFlaw)},
		{"E11", with(E11Convergence)},
		{"E12", with(E12Mobile)},
		{"E13", with(E13TInterval)},
		{"E14", with(E14PartitionMerge)},
		{"E15", with(E15VertexStable)},
		{"E16", with(E16Scaling)},
		// The suite runs E20's CI rung; the full n = 1024 ladder is
		// `ksetbench -only E20` (see e20SuiteSizes).
		{"E20", with(E20Suite)},
		{"E23", with(E23ApproxConvergence)},
	}
}

// All runs the full suite in order.
func All(cfg Config) ([]*Result, error) {
	var out []*Result
	for _, e := range Suite(cfg) {
		r, err := e.Run()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
