package experiments

import (
	"fmt"

	"kset/internal/adversary"
	"kset/internal/sim"
)

// e12Mobile exercises the Santoro-Widmayer mobile-omission regime the
// paper cites as [15, 16] ("Time is not a healer"): every round, f
// freshly chosen processes are silenced in an otherwise fully synchronous
// system. Nobody is permanently faulty, yet:
//
//   - if the silence keeps moving, the stable skeleton collapses to
//     self-loops, MinK becomes n, and Algorithm 1 — correctly — decides n
//     distinct values: even ONE mobile omission fault per round makes any
//     nontrivial agreement impossible, matching the classical result;
//
//   - if the silence settles on a fixed set from some round r_s, the
//     skeleton retains the survivors' clique, MinK drops back to a small
//     value, and Algorithm 1 terminates within the Lemma 11 bound.
func e12Mobile(cfg Config) (*Result, error) {
	res := &Result{Name: "E12 mobile omissions (Santoro-Widmayer regime)"}
	table := sim.NewTable("E12: Algorithm 1 under mobile omission faults (n=8)",
		"silence", "f", "distinct", "MinK", "last decision", "within bounds")
	n := 8
	for _, f := range []int{1, 2, 4} {
		// Round-robin forever: the classical schedule sweeps every
		// process within ⌈n/f⌉ ≤ n rounds, so every PT set collapses to
		// {p} and every process decides its round-n estimate at round n.
		// The f processes silenced in round 1 keep their own (private)
		// values and everyone else keeps the minimum of the rest:
		// exactly f+1 distinct decisions. Consensus is impossible with
		// even a single mobile omission fault — "time is not a healer".
		rr := adversary.NewMobileRoundRobin(n, f, 0, cfg.Seed+int64(f))
		out, err := sim.Execute(sim.Spec{
			Adversary: rr,
			Proposals: sim.SeqProposals(n),
			MaxRounds: 6 * n,
		})
		if err != nil {
			return nil, err
		}
		distinct := len(out.DistinctDecisions())
		ok := distinct == f+1 && distinct >= 2 && out.MaxDecisionRound() == n
		if !ok {
			res.Violations++
		}
		table.AddRow("round-robin forever", f, distinct, n,
			out.MaxDecisionRound(), verdict(ok))

		// Randomly moving forever: observational — silence may not
		// sweep everyone before decisions happen, so diversity varies;
		// only termination is asserted.
		mob := adversary.NewMobile(n, f, 0, cfg.Seed+int64(f))
		outR, err := sim.Execute(sim.Spec{
			Adversary: mob,
			Proposals: sim.SeqProposals(n),
			MaxRounds: 6 * n,
		})
		if err != nil {
			return nil, err
		}
		if err := outR.CheckTermination(); err != nil {
			res.Violations++
		}
		table.AddRow("random forever", f, len(outR.DistinctDecisions()), "-",
			outR.MaxDecisionRound(), "observational")

		// Settling at round n: survivors keep their clique, the
		// skeleton's MinK bounds decisions, Lemma 11 bounds latency.
		settled := adversary.NewMobile(n, f, n, cfg.Seed+int64(f)).Settled()
		out2, err := sim.Execute(sim.Spec{
			Adversary: settled,
			Proposals: sim.SeqProposals(n),
		})
		if err != nil {
			return nil, err
		}
		d2 := len(out2.DistinctDecisions())
		bound := out2.RST + 2*n - 1
		ok2 := d2 <= out2.MinK && out2.MaxDecisionRound() <= bound
		if !ok2 {
			res.Violations++
		}
		table.AddRow(fmt.Sprintf("settles at round %d", n), f, d2, out2.MinK,
			out2.MaxDecisionRound(), verdict(ok2))
	}
	res.Table = table
	res.note("round-robin silence forces exactly f+1 values at round n: consensus fails even for f = 1 (time does not heal)")
	res.note("once the silence settles, the surviving structure's MinK bounds decisions again")
	return res, nil
}
