package sim

import (
	"testing"

	"kset/internal/adversary"
	"kset/internal/graph"
	"kset/internal/rounds"
)

// TestSpecObserverChainsWithTracker verifies that a user observer passed
// through Spec runs alongside the driver's internal skeleton tracker and
// sees every round in order.
func TestSpecObserverChainsWithTracker(t *testing.T) {
	var seen []int
	out, err := Execute(Spec{
		Adversary: adversary.Figure1(),
		Proposals: SeqProposals(6),
		Observer: rounds.ObserverFunc(func(r int, g *graph.Digraph, _ []rounds.Algorithm) {
			seen = append(seen, r)
			if g == nil {
				t.Error("nil graph in observer")
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != out.Rounds {
		t.Fatalf("observer saw %d rounds, run had %d", len(seen), out.Rounds)
	}
	for i, r := range seen {
		if r != i+1 {
			t.Fatalf("rounds out of order: %v", seen)
		}
	}
	// The driver's own skeleton instrumentation must still work.
	if out.RST != 3 || out.MinK != 3 {
		t.Fatalf("tracker bypassed: RST=%d MinK=%d", out.RST, out.MinK)
	}
}
