package baseline

import (
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/sim"
)

// This file is the differential battery: FloodMin/FloodSet and
// OneThirdRule run against Algorithm 1 on IDENTICAL fuzzed schedules,
// and every algorithm is held to the guarantee its own model grants on
// that schedule family. Cross-algorithm value equality is asserted
// exactly where it is provable:
//
//   - failure-free synchronous runs: all three algorithms decide the
//     global minimum (distinct proposals make OneThirdRule's round-1
//     frequency tie break to the minimum);
//   - crash schedules: Algorithm 1's line-27 estimate and FloodMin's
//     min evolve identically (received-from sets are prefix-closed under
//     crashes, so PT equals the per-round heard set), hence FloodSet and
//     Algorithm 1 decide the same value at every process;
//   - lossy Psrcs(1) schedules: only Algorithm 1 still solves consensus
//     — FloodMin is unsafe under message loss and OneThirdRule need not
//     terminate (experiment E6), so they are exempt by design there.
func TestDifferentialConsensusRegime(t *testing.T) {
	const n, trials = 6, 25

	type familyResult struct {
		alg1, floodSet, otr *sim.Outcome
		sched               *adversary.CrashSchedule // nil outside the crash family
	}

	families := []struct {
		name string
		gen  func(rng *rand.Rand) (*adversary.Run, *adversary.CrashSchedule)
		// checks receives the three outcomes on the same schedule.
		checks func(t *testing.T, res familyResult)
	}{
		{
			name: "synchronous",
			gen: func(rng *rand.Rand) (*adversary.Run, *adversary.CrashSchedule) {
				return adversary.Complete(n), nil
			},
			checks: func(t *testing.T, res familyResult) {
				for _, out := range []*sim.Outcome{res.alg1, res.floodSet, res.otr} {
					if err := out.Check(1); err != nil {
						t.Fatal(err)
					}
					if got := out.DistinctDecisions(); len(got) != 1 || got[0] != 1 {
						t.Fatalf("synchronous decision %v, want the global min 1", got)
					}
				}
			},
		},
		{
			name: "crash",
			gen: func(rng *rand.Rand) (*adversary.Run, *adversary.CrashSchedule) {
				f := 1 + rng.Intn(2)
				run, sched := adversary.RandomCrashes(n, f, 3, rng)
				return run, sched
			},
			checks: func(t *testing.T, res familyResult) {
				survives := func(i int) bool { return res.sched.Rounds[i] == 0 }
				// Algorithm 1 mirrors FloodSet's min-flood at every
				// process, crashed ones included ("internally correct":
				// they keep stepping and decide their frozen value).
				for i := 0; i < n; i++ {
					if !res.alg1.Decided[i] || !res.floodSet.Decided[i] {
						t.Fatalf("p%d undecided: alg1=%v floodset=%v",
							i+1, res.alg1.Decided[i], res.floodSet.Decided[i])
					}
					if res.alg1.Decisions[i] != res.floodSet.Decisions[i] {
						t.Fatalf("p%d: alg1 decided %d, floodset %d",
							i+1, res.alg1.Decisions[i], res.floodSet.Decisions[i])
					}
				}
				// Both reach consensus among survivors.
				for name, out := range map[string]*sim.Outcome{"alg1": res.alg1, "floodset": res.floodSet} {
					if got := out.DistinctDecisionsAmong(survives); len(got) != 1 {
						t.Fatalf("%s survivors decided %v, want one value", name, got)
					}
				}
				// OneThirdRule: with 3f < n every survivor keeps hearing
				// > 2n/3 processes; safety plus convergence give
				// consensus among survivors (its value may legitimately
				// differ from the flood-min value).
				if 3*res.sched.NumCrashes() < n {
					got := res.otr.DistinctDecisionsAmong(func(i int) bool {
						return survives(i) && res.otr.Decided[i]
					})
					undecided := 0
					for i := 0; i < n; i++ {
						if survives(i) && !res.otr.Decided[i] {
							undecided++
						}
					}
					if undecided != 0 || len(got) != 1 {
						t.Fatalf("onethirdrule survivors: %d undecided, values %v", undecided, got)
					}
					if err := res.otr.CheckValidity(); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			name: "singlesource",
			gen: func(rng *rand.Rand) (*adversary.Run, *adversary.CrashSchedule) {
				return adversary.RandomSingleSource(n, rng.Intn(n+1), 0.2, 0.3, rng), nil
			},
			checks: func(t *testing.T, res familyResult) {
				// The k=1 regime: Psrcs(1) holds, so Algorithm 1 must
				// solve consensus despite the message loss.
				if err := res.alg1.Check(1); err != nil {
					t.Fatal(err)
				}
			},
		},
	}

	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(sim.CellSeed(11, trial)))
				run, sched := fam.gen(rng)
				f := 0
				if sched != nil {
					f = sched.NumCrashes()
				}

				execute := func(newProcess func(self int) rounds.Algorithm) *sim.Outcome {
					t.Helper()
					out, err := sim.Execute(sim.Spec{
						Adversary:  run,
						Proposals:  sim.SeqProposals(n),
						NewProcess: newProcess,
						Params:     core.Options{ConservativeDecide: true},
					})
					if err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
					return out
				}

				res := familyResult{
					sched:    sched,
					alg1:     execute(nil), // Algorithm 1 with the options above
					floodSet: execute(NewFloodSetFactory(sim.SeqProposals(n), f)),
					otr:      execute(NewOneThirdRuleFactory(sim.SeqProposals(n))),
				}
				func() {
					defer func() {
						if t.Failed() {
							t.Logf("trial %d schedule: stable %v", trial, run.Base())
						}
					}()
					fam.checks(t, res)
				}()
				if t.Failed() {
					t.Fatalf("family %s failed at trial %d", fam.name, trial)
				}
			}
		})
	}
}

// TestDifferentialFloodMinUnsafeUnderLoss pins the other side of the E6
// comparison as a differential fact: there exist Psrcs(1) schedules
// (consensus-solvable for Algorithm 1) on which FloodMin violates
// agreement — which is exactly why the lossy family above exempts it.
func TestDifferentialFloodMinUnsafeUnderLoss(t *testing.T) {
	const n = 5
	// A universal source p1 plus an isolated-value holder p2 that nobody
	// hears: FloodMin floods p1's value to deciders while p2 keeps (and
	// decides) its own smaller value. Psrcs(1) holds via p1.
	found := false
	for seed := int64(0); seed < 20 && !found; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run := adversary.RandomSingleSource(n, rng.Intn(3), 0.1, 0.3, rng)
		out, err := sim.Execute(sim.Spec{
			Adversary:  run,
			Proposals:  sim.SeqProposals(n),
			NewProcess: NewFloodMinFactory(sim.SeqProposals(n), n-1, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.DistinctDecisions()) > 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("FloodMin never violated agreement on 20 lossy Psrcs(1) schedules; " +
			"the E6 separation should reproduce here")
	}
}
