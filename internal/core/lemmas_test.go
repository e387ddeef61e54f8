package core

import (
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/rounds"
)

// lemmaBattery yields a diverse set of runs for the structural lemma
// tests: the Figure 1 run, lower-bound runs, random rooted skeletons with
// noise prefixes, crash runs, and eventual runs.
func lemmaBattery(seed int64) []rounds.Adversary {
	rng := rand.New(rand.NewSource(seed))
	advs := []rounds.Adversary{
		adversary.Figure1(),
		adversary.LowerBound(6, 3),
		adversary.LowerBound(5, 2),
		adversary.Complete(4),
		adversary.Isolation(4),
		adversary.Partition(6, adversary.EvenPartition(6, 3)),
	}
	for i := 0; i < 10; i++ {
		n := 3 + rng.Intn(6)
		advs = append(advs, adversary.RandomSources(n, 1+rng.Intn(n), rng.Intn(6), 0.3, rng))
	}
	for i := 0; i < 4; i++ {
		n := 3 + rng.Intn(5)
		crashRun, _ := adversary.RandomCrashes(n, rng.Intn(n), 4, rng)
		advs = append(advs, crashRun)
	}
	for i := 0; i < 3; i++ {
		n := 3 + rng.Intn(4)
		advs = append(advs, adversary.Eventual(adversary.Complete(n), 1+rng.Intn(2*n)))
	}
	return advs
}

// forEachRun runs the battery (both option variants) and calls fn.
func forEachRun(t *testing.T, fn func(t *testing.T, h *runHistory, opts Options)) {
	t.Helper()
	for oi, opts := range []Options{{}, {MergeOwnGraph: true}} {
		for i, adv := range lemmaBattery(int64(1000 * (oi + 1))) {
			n := adv.N()
			maxRounds := 6*n + 10
			h := run(t, adv, seqProposals(n), maxRounds, opts)
			fn(t, h, opts)
			if t.Failed() {
				t.Fatalf("battery adversary %d (n=%d, mergeOwn=%v) failed", i, n, opts.MergeOwnGraph)
			}
		}
	}
}

// TestObservation1 — p ∈ G^r_p and no edge label s ≤ r - n survives.
func TestObservation1(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		for r := 1; r <= h.rounds; r++ {
			for p := 0; p < h.n; p++ {
				g := h.approxAt(r, p)
				if !g.HasNode(p) {
					t.Errorf("round %d: p%d not in own approximation", r, p+1)
				}
				g.ForEachEdge(func(u, v, s int) {
					if s <= r-h.n {
						t.Errorf("round %d: edge p%d-%d->p%d too old", r, u+1, s, v+1)
					}
					if s > r {
						t.Errorf("round %d: edge p%d-%d->p%d from the future", r, u+1, s, v+1)
					}
				})
			}
		}
	})
}

// TestLemma3 — PTp equals the model-level PT(p, r) (the in-neighborhood
// of the round-r skeleton), fresh in-edges carry label exactly r, and
// there is at most one label per pair (guaranteed by representation, so
// we check the fresh-label claim).
func TestLemma3(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		for r := 1; r <= h.rounds; r++ {
			skel := h.tracker.At(r)
			for p := 0; p < h.n; p++ {
				wantPT := skel.InNeighbors(p)
				if !h.pts[r-1][p].Equal(wantPT) {
					t.Errorf("round %d: PT(p%d) = %v, model says %v",
						r, p+1, h.pts[r-1][p], wantPT)
				}
				g := h.approxAt(r, p)
				wantPT.ForEach(func(q int) {
					if got := g.Label(q, p); got != r {
						t.Errorf("round %d: label(q=p%d -> p%d) = %d, want fresh %d",
							r, q+1, p+1, got, r)
					}
				})
			}
		}
	})
}

// TestLemma4 — path propagation: if q' ∈ PT(p1, r-ℓ) and a path
// p1 -> ... -> p(ℓ+1) of length ℓ ≤ n-1 exists in G^∩r (r ≥ n), then
// G^r_p(ℓ+1) has an edge q' -> p1 labeled within [r-ℓ, r].
func TestLemma4(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		for r := h.n; r <= h.rounds; r++ {
			skel := h.tracker.At(r)
			for p1 := 0; p1 < h.n; p1++ {
				dist := graph.Distances(skel, p1)
				ptAtRminL := func(l int) graph.NodeSet { return h.pts[r-l-1][p1] }
				for pend := 0; pend < h.n; pend++ {
					l := dist[pend]
					if l < 0 || l > h.n-1 || l == 0 {
						continue
					}
					g := h.approxAt(r, pend)
					ptAtRminL(l).ForEach(func(q int) {
						got := g.Label(q, p1)
						if got < r-l || got > r {
							t.Errorf("round %d: Lemma 4 fails for path p%d~>p%d (ℓ=%d): label(p%d->p%d)=%d ∉ [%d,%d]",
								r, p1+1, pend+1, l, q+1, p1+1, got, r-l, r)
						}
					})
				}
			}
		}
	})
}

// TestLemma5 — for r ≥ n the approximation contains the process's
// strongly connected component in the round-r skeleton: G^r_p ⊇ C^r_p.
func TestLemma5(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		for r := h.n; r <= h.rounds; r++ {
			skel := h.tracker.At(r)
			for p := 0; p < h.n; p++ {
				comp := graph.ComponentOf(skel, p)
				compGraph := skel.InducedSubgraph(comp)
				approx := h.approxAt(r, p).Unlabeled()
				if !compGraph.SubgraphOf(approx) {
					t.Errorf("round %d: C^r_p%d ⊄ G^r_p%d\n comp   %v\n approx %v",
						r, p+1, p+1, compGraph, approx)
				}
			}
		}
	})
}

// TestLemma6 — no invented information: every edge (q' -s-> q) in any
// approximation satisfies q' ∈ PT(q, s), i.e. the edge is in the round-s
// skeleton.
func TestLemma6(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		for r := 1; r <= h.rounds; r++ {
			for p := 0; p < h.n; p++ {
				h.approxAt(r, p).ForEachEdge(func(u, v, s int) {
					if !h.tracker.At(s).HasEdge(u, v) {
						t.Errorf("round %d: edge p%d-%d->p%d in G_p%d not in G^∩%d",
							r, u+1, s, v+1, p+1, s)
					}
				})
			}
		}
	})
}

// TestLemma7 — if G^(r+n-1)_p is strongly connected then it is contained
// in C^r_p.
func TestLemma7(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		for r := 1; r+h.n-1 <= h.rounds; r++ {
			skel := h.tracker.At(r)
			for p := 0; p < h.n; p++ {
				g := h.approxAt(r+h.n-1, p)
				if !g.StronglyConnected() {
					continue
				}
				comp := graph.ComponentOf(skel, p)
				if !g.Nodes().SubsetOf(comp) {
					t.Errorf("round %d: strongly connected G^%d_p%d = %v ⊄ C^%d_p%d = %v",
						r, r+h.n-1, p+1, g.Nodes(), r, p+1, comp)
				}
			}
		}
	})
}

// TestTheorem8 — a strongly connected approximation G^R_p (R ≥ n)
// contains the stable-skeleton component C^∞_q of every node q it
// contains (nodes and edges).
func TestTheorem8(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		// Use the final skeleton as G^∩∞ (battery runs are long enough
		// for stabilization; Churn is not in the battery).
		stable := h.tracker.At(h.rounds)
		for R := h.n; R <= h.rounds; R++ {
			for p := 0; p < h.n; p++ {
				g := h.approxAt(R, p)
				if !g.StronglyConnected() {
					continue
				}
				approx := g.Unlabeled()
				g.Nodes().ForEach(func(q int) {
					comp := graph.ComponentOf(stable, q)
					compGraph := stable.InducedSubgraph(comp)
					if !compGraph.SubgraphOf(approx) {
						t.Errorf("round %d: C^∞_p%d ⊄ strongly connected G^%d_p%d",
							R, q+1, R, p+1)
					}
				})
			}
		}
	})
}

// TestLemma12 — estimates of processes that did not adopt a decide
// message are constant from round n-1 on.
func TestLemma12(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		if h.rounds < h.n {
			return
		}
		for p := 0; p < h.n; p++ {
			if h.procs[p].DecidedVia() == viaMessage {
				continue
			}
			final := h.est[h.rounds-1][p]
			for r := h.n - 1; r <= h.rounds; r++ {
				if h.est[r-1][p] != final {
					t.Errorf("p%d estimate changed after round n-1: %d -> %d at round %d",
						p+1, h.est[r-1][p], final, r)
				}
			}
		}
	})
}

// TestLemma14 — processes in the same strongly connected component of
// G^∩n have equal estimates at the end of round n.
func TestLemma14(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		if h.rounds < h.n {
			return
		}
		skel := h.tracker.At(h.n)
		seen := graph.NewNodeSet(h.n)
		for p := 0; p < h.n; p++ {
			if seen.Has(p) {
				continue
			}
			comp := graph.ComponentOf(skel, p)
			seen.UnionWith(comp)
			want := h.est[h.n-1][p]
			comp.ForEach(func(q int) {
				if h.est[h.n-1][q] != want {
					t.Errorf("x^n differs inside C^n: p%d has %d, p%d has %d",
						p+1, want, q+1, h.est[h.n-1][q])
				}
			})
		}
	})
}

// TestLemma10And11 — every process decides exactly once, within the
// Lemma 11 bound r_ST + 2n - 1.
func TestLemma10And11(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		rst := h.tracker.LastChange()
		if rst < 1 {
			rst = 1
		}
		bound := rst + 2*h.n - 1
		if h.rounds < bound {
			t.Fatalf("battery run too short: %d rounds < bound %d", h.rounds, bound)
		}
		for p := 0; p < h.n; p++ {
			if !h.procs[p].Decided() {
				t.Errorf("p%d never decided (bound %d, ran %d rounds)", p+1, bound, h.rounds)
				continue
			}
			_, r := h.procs[p].Decision()
			if r > bound {
				t.Errorf("p%d decided at round %d > bound r_ST+2n-1 = %d", p+1, r, bound)
			}
			if r < h.n {
				t.Errorf("p%d decided at round %d < n = %d", p+1, r, h.n)
			}
		}
		checkIrrevocability(t, h)
	})
}

// TestValidityAndMonotonicityBattery — Lemma 9 and Observation 2 across
// the whole battery.
func TestValidityAndMonotonicityBattery(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		checkValidity(t, h, seqProposals(h.n))
		checkEstimateMonotone(t, h)
	})
}

// TestLemma15KAgreement — the number of distinct decisions never exceeds
// MinK of the stable skeleton (the smallest k for which Psrcs(k) holds),
// which is the paper's k-agreement property instantiated with the
// tightest admissible k.
func TestLemma15KAgreement(t *testing.T) {
	forEachRun(t, func(t *testing.T, h *runHistory, _ Options) {
		stable := h.tracker.At(h.rounds)
		k := predicate.MinK(stable)
		if got := len(h.distinctDecisions(t)); got > k {
			t.Errorf("%d distinct decisions > MinK = %d", got, k)
		}
	})
}
