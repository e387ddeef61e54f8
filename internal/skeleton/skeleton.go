// Package skeleton maintains the paper's skeleton graphs: the round-r
// skeleton G^∩r (the intersection of all communication graphs up to round
// r, paper Section II), the timely neighborhoods PT(p, r), and the stable
// skeleton G^∩∞ together with its stabilization round r_ST.
package skeleton

import (
	"fmt"

	"kset/internal/graph"
	"kset/internal/rounds"
)

// Tracker incrementally computes G^∩r from observed round graphs. It
// implements rounds.Observer, so it can be attached to an executor
// directly. The zero value is not usable; use NewTracker.
type Tracker struct {
	n          int
	round      int
	skel       *graph.Digraph
	lastChange int
	history    []*graph.Digraph // snapshots per round if recording
	record     bool
}

// NewTracker returns a tracker for n processes. Before any round is
// observed the skeleton is the complete graph (the empty intersection
// over an empty set of rounds): G^∩0 ⊇ G^∩1 ⊇ ... as in paper eq. (1).
// If recordHistory is set, a snapshot of every G^∩r is kept and
// retrievable via At (memory: O(rounds·n²/64)).
func NewTracker(n int, recordHistory bool) *Tracker {
	return &Tracker{
		n:      n,
		skel:   graph.CompleteDigraph(n),
		record: recordHistory,
	}
}

// Observe folds the round-r communication graph into the skeleton.
// Rounds must be observed in order 1, 2, 3, ...
func (t *Tracker) Observe(r int, g *graph.Digraph) {
	if r != t.round+1 {
		panic(fmt.Sprintf("skeleton: observed round %d after round %d", r, t.round))
	}
	if g.N() != t.n {
		panic(fmt.Sprintf("skeleton: graph universe %d, want %d", g.N(), t.n))
	}
	t.round = r
	if t.skel.IntersectWith(g) {
		t.lastChange = r
	}
	if t.record {
		t.history = append(t.history, t.skel.Clone())
	}
}

// OnRound implements rounds.Observer.
func (t *Tracker) OnRound(r int, g *graph.Digraph, _ []rounds.Algorithm) {
	t.Observe(r, g)
}

// Skeleton returns a copy of the current skeleton G^∩r.
func (t *Tracker) Skeleton() *graph.Digraph { return t.skel.Clone() }

// At returns a copy of G^∩r for an already-observed round r >= 1. It
// panics unless the tracker records history.
func (t *Tracker) At(r int) *graph.Digraph {
	if !t.record {
		panic("skeleton: At requires history recording")
	}
	if r < 1 || r > t.round {
		panic(fmt.Sprintf("skeleton: round %d not observed (have 1..%d)", r, t.round))
	}
	return t.history[r-1].Clone()
}

// LastChange returns the last round in which the skeleton lost an edge or
// node — once the underlying run is stable this is the stabilization
// round r_ST of the paper (∀r >= r_ST: G^∩r = G^∩∞). Returns 0 if the
// skeleton never changed (fully synchronous run).
func (t *Tracker) LastChange() int { return t.lastChange }

// PT returns the timely neighborhood PT(p, r) for the current round r:
// the set of processes from which p received a message in every round up
// to and including r. Per the model's self-loop convention, p ∈ PT(p, r).
func (t *Tracker) PT(p int) graph.NodeSet { return t.skel.InNeighbors(p) }

// StableSkeleton computes G^∩∞ and the stabilization round for an
// adversary whose graph sequence becomes constant. For adversaries
// implementing rounds.Stabilizer this is exact: the intersection of all
// round graphs up to the stabilization round equals the intersection over
// the infinite run. For other adversaries, pass horizon > 0 to intersect
// the first `horizon` rounds (an over-approximation of G^∩∞: skeletons
// only shrink, paper eq. (1)).
func StableSkeleton(adv rounds.Adversary, horizon int) (*graph.Digraph, int) {
	limit := horizon
	if s, ok := adv.(rounds.Stabilizer); ok {
		limit = s.StabilizationRound()
	}
	if limit < 1 {
		panic("skeleton: StableSkeleton needs a Stabilizer adversary or horizon >= 1")
	}
	t := NewTracker(adv.N(), false)
	for r := 1; r <= limit; r++ {
		t.Observe(r, adv.Graph(r))
	}
	return t.Skeleton(), t.LastChange()
}
