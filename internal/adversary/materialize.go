package adversary

import (
	"kset/internal/graph"
	"kset/internal/rounds"
)

// MaterializeRun snapshots an arbitrary adversary into an eventually-
// constant Run covering at least rounds 1..upTo. The distributed runtime
// needs this in two ways: a transport's Schedule policy reads the
// round graph once per sender per round from n concurrent endpoints, so
// the schedule must be a pure read (generator adversaries like Churn
// rebuild an O(n²) graph on every Graph call and are not documented as
// concurrency-safe); and the differential harness must feed the
// simulator and the runtime the very same schedule, so a stateful
// generator must be consumed exactly once.
//
// If adv stabilizes by round upTo+1 (it is a *Run, or a
// rounds.Stabilizer with StabilizationRound <= upTo+1), the
// materialization is equivalent to adv in every round. Otherwise rounds
// beyond upTo repeat Graph(upTo+1), which may diverge from the original
// generator — callers bounding their run at upTo rounds never observe
// the difference.
func MaterializeRun(adv rounds.Adversary, upTo int) *Run {
	if run, ok := adv.(*Run); ok {
		return run
	}
	if upTo < 0 {
		upTo = 0
	}
	last := upTo + 1
	if s, ok := adv.(rounds.Stabilizer); ok {
		if sr := s.StabilizationRound(); sr <= last {
			last = sr
		}
	}
	prefix := make([]*graph.Digraph, 0, last-1)
	for r := 1; r < last; r++ {
		prefix = append(prefix, adv.Graph(r))
	}
	return NewRun(prefix, adv.Graph(last))
}
