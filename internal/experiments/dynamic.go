package experiments

import (
	"fmt"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/sim"
	"kset/internal/stats"
)

// This file holds the dynamic-network adversary suite E13-E16: regimes
// just outside the paper's eventually-stable model, generated by
// adversary.TInterval, adversary.PartitionMerge and
// adversary.VertexStableRoot, and driven through the sweep engine
// (sim.Sweep), which delivers each trial in cell order; a row keeps one
// number per trial and its cells are exact summaries of those numbers.
// Every randomized cell derives its seed via sim.CellSeed, which keeps
// all four experiments byte-identical across worker counts.

// e13TInterval measures decision quality against interval stability: a
// T-interval adversary redraws a rooted skeleton every T rounds until a
// 2n-round horizon. The stable skeleton is the intersection of all
// epochs, so small T shreds it, MinK (Theorem 1's bound) climbs toward
// n, and Algorithm 1 — correctly — decides many values; as T grows past
// the horizon the run degenerates to a single random skeleton and the
// usual Psrcs behavior returns. Decisions are checked against MinK under
// the repaired guard (DESIGN.md §2), which is sound for late-stabilizing
// runs like these.
func e13TInterval(cfg Config) (*Result, error) {
	res := &Result{Name: "E13 T-interval stability (decision quality vs T)"}
	n := 16
	horizon := 2 * n
	table := sim.NewTable(fmt.Sprintf("E13: decisions vs epoch length T (n=%d, horizon=%d)", n, horizon),
		"T", "trials", "mean MinK", "mean distinct", "max distinct", "mean last decision", "violations")
	for ti, T := range []int{1, 2, 4, 8, 16, 32} {
		var minK, distinct, last []float64
		viol := 0
		err := sim.Sweep(cfg.Trials, cfg.Workers,
			func(cell int) (*sim.Outcome, error) {
				adv := adversary.NewTInterval(n, T, horizon, 3,
					sim.CellSeed(cfg.Seed+13, ti*cfg.Trials+cell))
				return sim.Execute(sim.Spec{
					Adversary: adv,
					Proposals: sim.SeqProposals(n),
					Params:    core.Options{ConservativeDecide: true},
					MaxRounds: adv.StabilizationRound() + 4*n,
				})
			},
			func(cell int, out *sim.Outcome) error {
				if err := out.CheckTermination(); err != nil {
					viol++
					return nil
				}
				d := len(out.DistinctDecisions())
				if d > out.MinK {
					viol++
				}
				minK = append(minK, float64(out.MinK))
				distinct = append(distinct, float64(d))
				last = append(last, float64(out.MaxDecisionRound()))
				return nil
			})
		if err != nil {
			return nil, err
		}
		res.Violations += viol
		table.AddRow(T, cfg.Trials, stats.Mean(minK), stats.Mean(distinct), int(stats.Max(distinct)),
			stats.Mean(last), viol)
	}
	res.Table = table
	res.note("small T shreds the skeleton intersection: MinK climbs toward n and decision diversity follows")
	res.note("distinct <= MinK (Theorem 1 under the repaired guard) held in every cell")
	return res, nil
}

// e14PartitionMerge runs the partition-driven regime: c disjoint cliques
// re-merge pairwise every `every` rounds. The stable skeleton is the
// initial partition, so MinK = c exactly, and the k >= c bound is the
// partition analogue of Theorem 2's lower bound. The bound is tight and
// the merge cadence cannot beat it: estimates propagate only along
// perpetually-timely edges (line 27 takes the minimum over PT, and PT
// never spans the initial partition no matter how early the components
// re-merge), so every run decides exactly c values — each component its
// own clique minimum. The experiment asserts that tightness per trial
// and records the decision round across cadences.
func e14PartitionMerge(cfg Config) (*Result, error) {
	res := &Result{Name: "E14 partition/merge (k >= c bound vs merge cadence)"}
	n := 24
	table := sim.NewTable(fmt.Sprintf("E14: decisions and latency vs partition count c (n=%d)", n),
		"c", "merge every", "trials", "mean distinct", "max distinct", "bound c", "mean last decision", "violations")
	row := 0
	for _, c := range []int{2, 3, 4, 6, 8} {
		for _, every := range []int{2, n / 2, n} {
			var distinct, last []float64
			viol := 0
			row++
			err := sim.Sweep(cfg.Trials, cfg.Workers,
				func(cell int) (*sim.Outcome, error) {
					return sim.Execute(sim.Spec{
						Adversary: adversary.NewPartitionMerge(n, c, every,
							sim.CellSeed(cfg.Seed+14, row*cfg.Trials+cell)),
						Proposals: sim.SeqProposals(n),
					})
				},
				func(cell int, out *sim.Outcome) error {
					if err := out.CheckTermination(); err != nil {
						viol++
						return nil
					}
					if out.MinK != c {
						return fmt.Errorf("partition skeleton MinK = %d, want c = %d", out.MinK, c)
					}
					d := len(out.DistinctDecisions())
					if d != c {
						viol++ // the bound is tight: exactly c values
					}
					distinct = append(distinct, float64(d))
					last = append(last, float64(out.MaxDecisionRound()))
					return nil
				})
			if err != nil {
				return nil, err
			}
			res.Violations += viol
			table.AddRow(c, every, cfg.Trials, stats.Mean(distinct), int(stats.Max(distinct)), c,
				stats.Mean(last), viol)
		}
	}
	res.Table = table
	res.note("every run decided exactly c values: the k >= c partition bound is tight, like Theorem 2's construction")
	res.note("merge cadence is irrelevant to diversity: estimates flow only along PT edges, which never span the initial partition")
	return res, nil
}

// e15VertexStable measures stale-edge lifetime under vertex-stable
// roots: the root clique is perpetual, the periphery is rewired every
// round forever, so approximation graphs permanently carry transient
// edges that the line-24 purge must keep flushing. Lemma 4's purge
// window guarantees every label in G^r_p satisfies label > r - n, i.e.
// no stale edge survives longer than n - 1 rounds; the experiment
// verifies that age bound over every process, round, and trial, and —
// because the perpetual apex makes the run Psrcs(1) — asserts consensus
// under the repaired guard.
func e15VertexStable(cfg Config) (*Result, error) {
	res := &Result{Name: "E15 vertex-stable root (stale-edge lifetime)"}
	table := sim.NewTable("E15: transient-edge ages in approximation graphs",
		"n", "periphery p", "trials", "mean stale edges/round", "max stale age", "bound n-1", "consensus", "violations")
	for ni, n := range []int{8, 16} {
		for pi, p := range []float64{0.1, 0.3} {
			var staleCount []float64
			maxAge := 0
			consensus := true
			viol := 0
			err := sim.Sweep(cfg.Trials, cfg.Workers,
				func(cell int) (e15Trial, error) {
					return vertexStableTrial(n, p,
						sim.CellSeed(cfg.Seed+15, (ni*2+pi)*cfg.Trials+cell))
				},
				func(cell int, trial e15Trial) error {
					m, out := trial.stale, trial.out
					if m.maxAge > maxAge {
						maxAge = m.maxAge
					}
					if m.maxAge > n-1 {
						viol++
					}
					staleCount = append(staleCount, m.meanPerRound())
					if err := out.CheckTermination(); err != nil {
						viol++
						return nil
					}
					if len(out.DistinctDecisions()) != 1 {
						consensus = false
						viol++
					}
					return nil
				})
			if err != nil {
				return nil, err
			}
			res.Violations += viol
			table.AddRow(n, p, cfg.Trials, stats.Mean(staleCount), maxAge, n-1,
				consensus, viol)
		}
	}
	res.Table = table
	res.note("no stale edge outlived the purge window: every observed age <= n-1 (Lemma 4)")
	res.note("the perpetual apex keeps the run Psrcs(1): consensus in every trial despite per-round rewiring")
	return res, nil
}

// staleMeter observes a run under a VertexStableRoot adversary and
// tracks, over all processes and rounds, the age r - label of every
// approximation edge outside the perpetual base, plus the average number
// of such stale edges per process-round.
type staleMeter struct {
	base       *graph.Digraph
	maxAge     int
	staleTotal int
	samples    int
}

// OnRound implements rounds.Observer.
func (m *staleMeter) OnRound(r int, _ *graph.Digraph, procs []rounds.Algorithm) {
	for _, a := range procs {
		p, ok := a.(*core.Process)
		if !ok {
			continue
		}
		m.samples++
		p.Approx().ForEachEdge(func(u, v, label int) {
			if u == v || m.base.HasEdge(u, v) {
				return
			}
			m.staleTotal++
			if age := r - label; age > m.maxAge {
				m.maxAge = age
			}
		})
	}
}

// meanPerRound returns the mean number of stale edges per process-round.
func (m *staleMeter) meanPerRound() float64 {
	if m.samples == 0 {
		return 0
	}
	return float64(m.staleTotal) / float64(m.samples)
}

// e15Trial is what one E15 cell hands its consumer: the run's outcome
// beside the meter that observed it.
type e15Trial struct {
	out   *sim.Outcome
	stale *staleMeter
}

// vertexStableTrial runs one E15 trial: a VertexStableRoot run with a
// staleMeter observer, executed to completion over 6n rounds so staleness
// is sampled well past the decisions.
func vertexStableTrial(n int, p float64, seed int64) (e15Trial, error) {
	adv := adversary.NewVertexStableRoot(n, 2+n/8, p, seed)
	m := &staleMeter{base: adv.Base()}
	out, err := sim.Execute(sim.Spec{
		Adversary:       adv,
		Proposals:       sim.SeqProposals(n),
		Params:          core.Options{ConservativeDecide: true},
		MaxRounds:       6 * n,
		RunToCompletion: true,
		Observer:        m,
	})
	return e15Trial{out, m}, err
}

// e16Scaling is the large-n scaling sweep: cfg.Trials random Psrcs runs
// per n up to n = 64. Each trial is checked against the Lemma 11
// termination bound r_ST + 2n - 1 and the Theorem 1 bound distinct <=
// MinK, extending E4's validation to larger sizes; the latency columns
// are exact quantiles of the trials' last decision rounds.
func e16Scaling(cfg Config) (*Result, error) {
	res := &Result{Name: "E16 large-n scaling (streaming sweep)"}
	table := sim.NewTable("E16: decision latency at scale (random Psrcs runs, exact quantiles)",
		"n", "trials", "mean last", "p50", "p95", "max last", "mean distinct", "mean MinK", "violations")
	for ni, n := range []int{16, 32, 64} {
		var last, distinct, minK []float64
		viol := 0
		err := sim.Sweep(cfg.Trials, cfg.Workers, e16Cell(cfg, ni, n),
			func(cell int, out *sim.Outcome) error {
				if err := out.CheckTermination(); err != nil {
					viol++
					return nil
				}
				l := out.MaxDecisionRound()
				if l > out.RST+2*n-1 {
					viol++
				}
				d := len(out.DistinctDecisions())
				if d > out.MinK {
					viol++
				}
				last = append(last, float64(l))
				distinct = append(distinct, float64(d))
				minK = append(minK, float64(out.MinK))
				return nil
			})
		if err != nil {
			return nil, err
		}
		res.Violations += viol
		s := stats.Summarize(last)
		table.AddRow(n, cfg.Trials, s.Mean, s.P50, s.P95, int(s.Max),
			stats.Mean(distinct), stats.Mean(minK), viol)
	}
	res.Table = table
	res.note("p50 and p95 are exact quantiles of the trials' last decision rounds")
	res.note("Lemma 11 (r_ST + 2n - 1) and Theorem 1 (distinct <= MinK) held at every n")
	return res, nil
}

// e16Cell returns the trial of E16's row ni (size n): a random Psrcs run
// with 1-4 root sources behind a noisy prefix, seeded by its cell.
func e16Cell(cfg Config, ni, n int) func(cell int) (*sim.Outcome, error) {
	return func(cell int) (*sim.Outcome, error) {
		rng := newRng(sim.CellSeed(cfg.Seed+16, ni*cfg.Trials+cell))
		return sim.Execute(sim.Spec{
			Adversary: adversary.RandomSources(n, 1+rng.Intn(4), rng.Intn(n), 0.25, rng),
			Proposals: sim.SeqProposals(n),
		})
	}
}
