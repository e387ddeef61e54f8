package experiments

import (
	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/sim"
	"kset/internal/skeleton"
	"kset/internal/stats"
)

// e11Convergence quantifies how fast the local approximations converge
// after the run stabilizes. Lemma 11 proves that a root-component member
// p has G^(r_ST+n-1)_p equal to its component; more generally, once the
// purge has flushed all pre-stabilization information, the *shape* (nodes
// and unlabeled edges) of every approximation becomes constant — only
// labels keep advancing. The measured quantity is the lag
//
//	λ_p = (first round from which shape(G^r_p) stays constant) − r_ST
//
// reported as mean and max over processes and runs, against the paper's
// n−1 reference for root members (and ≤ 2n for everyone, the purge
// window plus propagation).
func e11Convergence(cfg Config) (*Result, error) {
	res := &Result{Name: "E11 approximation convergence lag after stabilization"}
	table := sim.NewTable("E11: rounds until the local view shape stops changing (lag after r_ST)",
		"n", "noise prefix", "trials", "mean lag", "p95 lag", "max lag", "bound 2n", "violations")
	rng := newRng(cfg.Seed + 11)
	for _, n := range []int{4, 8, 16} {
		for _, noisy := range []int{0, n} {
			var lags []float64
			viol := 0
			for trial := 0; trial < cfg.Trials; trial++ {
				run := adversary.RandomSources(n, 1+rng.Intn(3), noisy, 0.25, rng)
				lag, err := convergenceLag(run, n)
				if err != nil {
					return nil, err
				}
				lags = append(lags, float64(lag))
				if lag > 2*n {
					viol++
				}
			}
			res.Violations += viol
			s := stats.Summarize(lags)
			table.AddRow(n, noisy, cfg.Trials, s.Mean, s.P95, int(s.Max), 2*n, viol)
		}
	}
	res.Table = table
	res.note("every local view shape froze within 2n rounds of skeleton stabilization")
	return res, nil
}

// convergenceLag runs Algorithm 1 under run (which must stabilize) and
// returns the worst per-process lag between the skeleton stabilization
// round and the round from which the approximation's shape (present
// nodes + unlabeled edges) never changes again.
func convergenceLag(run *adversary.Run, n int) (int, error) {
	horizon := run.StabilizationRound() + 3*n + 2
	shapes := make([][]*graph.Digraph, n) // per process, per round
	tracker := skeleton.NewTracker(n, false)
	obs := rounds.ObserverFunc(func(r int, g *graph.Digraph, procs []rounds.Algorithm) {
		for i, a := range procs {
			p := a.(*core.Process)
			shapes[i] = append(shapes[i], p.Approx().Unlabeled())
		}
	})
	_, err := rounds.RunSequential(rounds.Config{
		Adversary:  run,
		NewProcess: core.NewFactory(sim.SeqProposals(n), core.Options{}),
		MaxRounds:  horizon,
		Observer:   rounds.MultiObserver{tracker, obs},
	})
	if err != nil {
		return 0, err
	}
	rst := tracker.LastChange()
	if rst < 1 {
		rst = 1
	}
	worst := 0
	for p := 0; p < n; p++ {
		// Find the first round from which the shape is constant.
		stableFrom := horizon
		for r := horizon - 1; r >= 1; r-- {
			if !shapes[p][r-1].Equal(shapes[p][horizon-1]) {
				break
			}
			stableFrom = r
		}
		lag := stableFrom - rst
		if lag < 0 {
			lag = 0
		}
		if lag > worst {
			worst = lag
		}
	}
	return worst, nil
}
