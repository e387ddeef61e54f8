// Package baseline implements the classical synchronous k-set agreement
// and consensus algorithms the reproduction compares Algorithm 1 against
// (experiment E6):
//
//   - FloodMin — the ⌊f/k⌋+1-round k-set agreement algorithm for the
//     synchronous model with at most f crash failures (Chaudhuri's line of
//     work; see also Lynch, "Distributed Algorithms", ch. 7). It is correct
//     under crash failures but has no defense against the message loss
//     allowed by Psrcs(k): the experiments show it violating k-agreement on
//     runs where Algorithm 1 stays safe.
//
//   - FloodSet — the f+1-round consensus variant: FloodMin with k = 1.
//
// Both implement rounds.Algorithm and rounds.Decider, so they run under
// the exact same executors and adversaries as Algorithm 1.
package baseline

import (
	"fmt"

	"kset/internal/rounds"
)

// floodMin is one process of the FloodMin algorithm. Unlike Algorithm 1
// it must know the failure budget f and the target k in advance: it
// decides unconditionally at the end of round ⌊f/k⌋ + 1.
type floodMin struct {
	proposal int64
	f, k     int

	self, n     int
	min         int64
	decided     bool
	decideRound int
	rounds      int
}

var _ rounds.Algorithm = (*floodMin)(nil)
var _ rounds.Decider = (*floodMin)(nil)

// newFloodMin returns a FloodMin process proposing the given value,
// tolerating f crashes, and solving k-set agreement.
func newFloodMin(proposal int64, f, k int) *floodMin {
	if f < 0 || k < 1 {
		panic(fmt.Sprintf("baseline: invalid FloodMin parameters f=%d k=%d", f, k))
	}
	return &floodMin{proposal: proposal, f: f, k: k}
}

// NewFloodMinFactory adapts a proposal vector to the executor factory.
func NewFloodMinFactory(proposals []int64, f, k int) func(self int) rounds.Algorithm {
	return func(self int) rounds.Algorithm {
		return newFloodMin(proposals[self], f, k)
	}
}

// Rounds returns the number of rounds FloodMin runs before deciding:
// ⌊f/k⌋ + 1.
func (fm *floodMin) Rounds() int { return fm.f/fm.k + 1 }

// Init implements rounds.Algorithm.
func (fm *floodMin) Init(self, n int) {
	fm.self = self
	fm.n = n
	fm.min = fm.proposal
	fm.rounds = fm.Rounds()
}

// Send implements rounds.Algorithm: broadcast the smallest value seen.
// After deciding, FloodMin keeps gossiping its decision (harmless, and it
// keeps the executor uniform).
func (fm *floodMin) Send(r int) any { return fm.min }

// Transition implements rounds.Algorithm.
func (fm *floodMin) Transition(r int, recv []any) {
	for _, msg := range recv {
		if msg == nil {
			continue
		}
		if v := msg.(int64); v < fm.min && !fm.decided {
			fm.min = v
		}
	}
	if !fm.decided && r >= fm.rounds {
		fm.decided = true
		fm.decideRound = r
	}
}

// Proposal implements rounds.Decider.
func (fm *floodMin) Proposal() int64 { return fm.proposal }

// Decided implements rounds.Decider.
func (fm *floodMin) Decided() bool { return fm.decided }

// Decision implements rounds.Decider.
func (fm *floodMin) Decision() (int64, int) {
	if !fm.decided {
		panic("baseline: FloodMin.Decision before deciding")
	}
	return fm.min, fm.decideRound
}
