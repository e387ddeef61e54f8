package adversary

import (
	"fmt"
	"math/rand"

	"kset/internal/graph"
)

// MixSeed derives an independent sub-seed from (seed, i) with a
// splitmix64 finalizer, so per-round and per-epoch random streams of the
// dynamic adversaries never overlap for nearby indices. It is the single
// mixer behind the determinism scheme of DESIGN.md §5: sim.CellSeed
// wraps it for per-cell sweep seeding. The result is non-negative.
func MixSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// TInterval is a T-interval-stable dynamic-network adversary: the
// communication graph is redrawn every T rounds from the rooted-skeleton
// distribution (graph.RandomRootedSkeleton with 1..MaxRoots root
// components), and stops changing once the horizon is reached. It models
// the interval-connectivity regime of the dynamic-network k-set-agreement
// literature (Fraigniaud–Nguyen–Paz and the fault-prone-network lower
// bounds cited in PAPERS.md): inside an epoch the paper's Psrcs machinery
// applies to the epoch graph, but across epochs only the intersection
// survives, so the stable skeleton G^∩∞ — and with it MinK, the bound of
// Theorem 1 — degrades as T shrinks. Experiment E13 measures exactly
// that degradation.
//
// The sequence is eventually constant, so TInterval implements
// rounds.Stabilizer, and Graph(r) is deterministic in (seed, r) as the
// executor contract requires.
type TInterval struct {
	n        int
	t        int // epoch length in rounds
	horizon  int // rounds after which the graph freezes
	maxRoots int
	seed     int64
}

// NewTInterval returns a T-interval adversary on n processes: a fresh
// rooted skeleton with 1..maxRoots root components every T rounds, frozen
// from the epoch containing round horizon onward.
func NewTInterval(n, T, horizon, maxRoots int, seed int64) *TInterval {
	if n < 1 {
		panic(fmt.Sprintf("adversary: TInterval n=%d", n))
	}
	if T < 1 {
		panic(fmt.Sprintf("adversary: TInterval T=%d, need >= 1", T))
	}
	if horizon < 1 {
		panic(fmt.Sprintf("adversary: TInterval horizon=%d, need >= 1", horizon))
	}
	if maxRoots < 1 || maxRoots > n {
		panic(fmt.Sprintf("adversary: TInterval maxRoots=%d out of [1,%d]", maxRoots, n))
	}
	return &TInterval{n: n, t: T, horizon: horizon, maxRoots: maxRoots, seed: seed}
}

// N implements rounds.Adversary.
func (a *TInterval) N() int { return a.n }

// epoch returns the epoch index (0-based) that round r's graph is drawn
// from; rounds past the horizon stay in the final epoch.
func (a *TInterval) epoch(r int) int {
	if r < 1 {
		panic(fmt.Sprintf("adversary: round %d < 1", r))
	}
	if r > a.horizon {
		r = a.horizon
	}
	return (r - 1) / a.t
}

// epochGraph draws epoch e's rooted skeleton, deterministically in
// (seed, e).
func (a *TInterval) epochGraph(e int) *graph.Digraph {
	rng := rand.New(rand.NewSource(MixSeed(a.seed, e)))
	roots := 1 + rng.Intn(a.maxRoots)
	return graph.RandomRootedSkeleton(a.n, roots, rng)
}

// Graph implements rounds.Adversary.
func (a *TInterval) Graph(r int) *graph.Digraph { return a.epochGraph(a.epoch(r)) }

// StabilizationRound implements rounds.Stabilizer: the first round of the
// final epoch, from which the graph sequence is constant.
func (a *TInterval) StabilizationRound() int { return a.epoch(a.horizon)*a.t + 1 }

// StableSkeleton returns G^∩∞ of this run: the intersection of every
// epoch's graph. For small T (many epochs) it degrades toward the
// self-loop graph, which is what drives MinK — and with it the number of
// decision values Theorem 1 permits — upward in experiment E13.
func (a *TInterval) StableSkeleton() *graph.Digraph {
	skel := a.epochGraph(0)
	for e := 1; e <= a.epoch(a.horizon); e++ {
		skel.IntersectWith(a.epochGraph(e))
	}
	return skel
}
