package baseline

import (
	"fmt"
	"sort"

	"kset/internal/rounds"
)

// oneThirdRule is one process of OneThirdRule, the canonical consensus
// algorithm of the Heard-Of model
// (Charron-Bost & Schiper, "The Heard-Of model", Distributed Computing
// 22(1), 2009) — the framework the paper's round structure builds on.
// Per round, every process broadcasts its estimate and then:
//
//   - if it hears more than 2n/3 processes, it adopts the smallest most
//     frequent value among the received ones;
//   - if additionally more than 2n/3 of the *received* values are equal,
//     it decides that value.
//
// Safety holds in every run; liveness needs rounds in which enough
// processes hear the same large set. Under the paper's Psrcs(k)
// skeletons, heard-of sets can stay below the 2n/3 threshold forever, so
// OneThirdRule simply never terminates where Algorithm 1 does — the
// second axis (besides FloodMin's unsafety) of the E6 comparison.
type oneThirdRule struct {
	proposal int64

	self, n     int
	x           int64
	decided     bool
	decideVal   int64
	decideRound int
}

var _ rounds.Algorithm = (*oneThirdRule)(nil)
var _ rounds.Decider = (*oneThirdRule)(nil)

// newOneThirdRule returns a process proposing the given value.
func newOneThirdRule(proposal int64) *oneThirdRule {
	return &oneThirdRule{proposal: proposal}
}

// NewOneThirdRuleFactory adapts a proposal vector to the executor factory.
func NewOneThirdRuleFactory(proposals []int64) func(self int) rounds.Algorithm {
	return func(self int) rounds.Algorithm {
		return newOneThirdRule(proposals[self])
	}
}

// Init implements rounds.Algorithm.
func (o *oneThirdRule) Init(self, n int) {
	o.self = self
	o.n = n
	o.x = o.proposal
}

// Send implements rounds.Algorithm.
func (o *oneThirdRule) Send(r int) any { return o.x }

// Transition implements rounds.Algorithm.
func (o *oneThirdRule) Transition(r int, recv []any) {
	counts := map[int64]int{}
	heard := 0
	for _, m := range recv {
		if m == nil {
			continue
		}
		heard++
		counts[m.(int64)]++
	}
	if 3*heard <= 2*o.n {
		return // too few heard: keep the estimate
	}
	// Adopt the smallest most frequent received value.
	type kv struct {
		v int64
		c int
	}
	var freq []kv
	for v, c := range counts {
		freq = append(freq, kv{v, c})
	}
	sort.Slice(freq, func(i, j int) bool {
		if freq[i].c != freq[j].c {
			return freq[i].c > freq[j].c
		}
		return freq[i].v < freq[j].v
	})
	o.x = freq[0].v
	if !o.decided && 3*freq[0].c > 2*o.n {
		o.decided = true
		o.decideVal = freq[0].v
		o.decideRound = r
	}
}

// Proposal implements rounds.Decider.
func (o *oneThirdRule) Proposal() int64 { return o.proposal }

// Decided implements rounds.Decider.
func (o *oneThirdRule) Decided() bool { return o.decided }

// Decision implements rounds.Decider.
func (o *oneThirdRule) Decision() (int64, int) {
	if !o.decided {
		panic(fmt.Sprintf("baseline: OneThirdRule p%d undecided", o.self+1))
	}
	return o.decideVal, o.decideRound
}
