package experiments

import (
	"fmt"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/approx"
	"kset/internal/sim"
	"kset/internal/stats"
)

// e23ApproxConvergence measures the second registered algorithm family:
// graph approximate agreement on paths and cycles, executed through the
// same sim pipeline as every kset experiment. Each table cell runs
// cfg.Trials randomized stabilizing single-rooted schedules (the regime
// the family claims convergence in), checks the family's own oracles
// (termination at exactly DecideRound, hull/arc validity, pairwise
// adjacency), and reports the realized decide round against the
// amortized phase bound plus how tightly decisions cluster.
func e23ApproxConvergence(cfg Config) (*Result, error) {
	res := &Result{Name: "E23 graph approximate agreement (path and cycle convergence)"}
	table := sim.NewTable("E23: approx decisions within distance 1 after the amortized phase schedule",
		"graph", "n", "trials", "decide round", "mean spread", "max spread", "violations")
	rng := newRng(cfg.Seed + 23)
	type cell struct {
		shape approx.Shape
		n, v  int
	}
	cells := []cell{
		{approx.Path, 4, 0}, // V defaults to n+1
		{approx.Path, 8, 12},
		{approx.Path, 12, 0},
		{approx.Cycle, 4, 8},
		{approx.Cycle, 8, 12},
	}
	for _, c := range cells {
		v := c.v
		if v == 0 {
			v = c.n + 1
		}
		g := approx.Graph{Shape: c.shape, V: v}
		var spreads []float64
		decideRound := 0
		viol := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			props := make([]int64, c.n)
			if c.shape == approx.Cycle {
				// Narrow arc wrapping vertex 0: the universal-cover regime.
				for i := range props {
					props[i] = int64((v - 1 + rng.Intn(3)) % v)
				}
			} else {
				for i := range props {
					props[i] = int64(rng.Intn(v))
				}
			}
			out, err := sim.Execute(sim.Spec{
				Algorithm: algo.Approx,
				Adversary: adversary.RandomSources(c.n, 1, rng.Intn(2*c.n), 0.3, rng),
				Proposals: props,
				Params:    approx.Options{Graph: g},
			})
			if err != nil {
				return nil, err
			}
			viol += len(out.CheckAlgorithm())
			decideRound = out.Run.Params.(approx.Options).DecideRound
			var worst int64
			for i := 0; i < out.N; i++ {
				for j := i + 1; j < out.N; j++ {
					if d := approx.Dist(g, out.Decisions[i], out.Decisions[j]); d > worst {
						worst = d
					}
				}
			}
			spreads = append(spreads, float64(worst))
			if worst > 1 {
				viol++
			}
		}
		res.Violations += viol
		s := stats.Summarize(spreads)
		table.AddRow(fmt.Sprintf("%s-%d", c.shape, v), c.n, cfg.Trials, decideRound, s.Mean, int(s.Max), viol)
	}
	res.Table = table
	res.note("every pair of decisions is adjacent on the target graph; all processes decide at exactly the amortized phase bound")
	return res, nil
}
