package experiments

import (
	"time"

	"kset/internal/adversary"
	"kset/internal/sim"
	"kset/internal/stats"
)

// e20Sizes is the full sweep of E20LargeN: every size is past the
// one-word boundary, doubling up to 16 words per bitset row.
var e20Sizes = []int{128, 256, 512, 1024}

// e20SuiteSizes is the rung All() runs: past the word boundary on both
// sizes so every multi-word path is exercised, but within the tier-1
// test budget. The full ladder to n = 1024 runs via
// `ksetbench -only E20` and the nightly n = 512 lane.
var e20SuiteSizes = []int{128, 256}

// e20Hubs returns the hub counts exercised at size n. MinK is computed
// exactly per trial (sim.Execute always evaluates the shares-a-source
// independence number), and on a hub-cluster skeleton the branch-and-
// bound search costs roughly (n/hubs)^(hubs-1) — so the hub count must
// stay small, and smaller still at the largest sizes.
func e20Hubs(n int) []int {
	if n >= 512 {
		return []int{1, 2}
	}
	return []int{1, 2, 4}
}

// e20Trials scales the per-size trial count by the quadratic per-trial
// cost so the sweep's wall clock stays roughly flat across sizes.
func e20Trials(cfg Config, n int) int {
	t := cfg.Trials * (128 * 128) / (n * n)
	return max(2, t)
}

// e20Workers caps sweep parallelism by memory: one in-flight trial holds
// n processes × two O(n²/64) bitset arenas (≈ 0.75 MB per process at n = 1024),
// so the largest size keeps at most a handful of trials resident.
func e20Workers(cfg Config, n int) int {
	if n >= 1024 {
		return min(cfg.Workers, 4)
	}
	return cfg.Workers
}

// e20 runs the hub-cluster scaling sweep over the given sizes; see
// E20LargeN. Factored out so the CI smoke test can run the n = 128 rung
// and the nightly lane the n = 512 rung in isolation.
func e20(cfg Config, sizes []int) (*Result, error) {
	res := &Result{Name: "E20 multi-word scaling (hub-cluster skeletons)"}
	table := sim.NewTable("E20: Algorithm 1 beyond one word (hub-cluster runs, exact quantiles)",
		"n", "hubs", "trials", "mean last", "p95 last", "max last", "MinK=hubs", "ms/trial", "violations")
	for ni, n := range sizes {
		for hi, hubs := range e20Hubs(n) {
			trials := e20Trials(cfg, n)
			var last []float64
			exact := 0
			viol := 0
			start := time.Now()
			err := sim.Sweep(trials, e20Workers(cfg, n),
				func(cell int) (*sim.Outcome, error) {
					rng := newRng(sim.CellSeed(cfg.Seed+20, (ni*8+hi)*cfg.Trials+cell))
					// A short noisy prefix (p ≈ 2/n extra edges per round)
					// keeps the purge and merge paths honest without
					// changing the skeleton.
					return sim.Execute(sim.Spec{
						Adversary: adversary.HubClusters(n, hubs, 8, 2/float64(n), rng),
						Proposals: sim.SeqProposals(n),
					})
				},
				func(cell int, out *sim.Outcome) error {
					if err := out.CheckTermination(); err != nil {
						viol++
						return nil
					}
					l := out.MaxDecisionRound()
					if l > out.RST+2*n-1 {
						viol++
					}
					if len(out.DistinctDecisions()) > out.MinK {
						viol++
					}
					// The analytic pin: hub-cluster skeletons have MinK =
					// hubs and a single root component by construction, so
					// the multi-word MIS and SCC kernels are checked
					// against known-correct values at every size.
					if out.MinK == hubs && out.RootComps == 1 {
						exact++
					} else {
						viol++
					}
					last = append(last, float64(l))
					return nil
				})
			if err != nil {
				return nil, err
			}
			res.Violations += viol
			perTrial := float64(time.Since(start).Milliseconds()) / float64(trials)
			s := stats.Summarize(last)
			table.AddRow(n, hubs, trials, s.Mean, s.P95, int(s.Max),
				exact, perTrial, viol)
		}
	}
	res.Table = table
	res.note("hub-cluster skeletons: MinK = hubs and RootComps = 1 held exactly at every size")
	res.note("Lemma 11 (r_ST + 2n - 1) and Theorem 1 (distinct <= MinK) held up to n = %d", sizes[len(sizes)-1])
	return res, nil
}

// e20Suite runs the n = {128, 256} rung of the sweep — every kernel is
// multi-word at both sizes, but the wall clock fits the tier-1 budget.
// All() and `ksetbench -quick` run this rung; the full ladder is
// E20LargeN.
func e20Suite(cfg Config) (*Result, error) { return e20(cfg, e20SuiteSizes) }

// E20LargeN is the multi-word scaling sweep: Algorithm 1 on hub-cluster
// skeletons at n = 128..1024, where every bitset kernel (merge, purge,
// reachability, prune, SCC, MIS) runs its multi-word path. Each trial is
// held to the same bounds as E16 — termination, Lemma 11's r_ST + 2n - 1,
// Theorem 1's distinct <= MinK — plus the analytic pins MinK = hubs and
// RootComps = 1 that the skeleton family guarantees by construction. The
// ms/trial column is the scaling curve of EXPERIMENTS.md §E20.
func E20LargeN(cfg Config) (*Result, error) { return e20(cfg, e20Sizes) }
