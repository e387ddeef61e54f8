package check

import (
	"kset/internal/adversary"
	"kset/internal/graph"
)

// This file is the counterexample shrinker: given a failing schedule it
// greedily applies three reductions — drop a prefix round, remove a
// process (projecting every round graph onto the survivors), drop a
// non-self-loop edge from any round graph — keeping a reduction only if
// the reduced run still violates the SAME oracle as the original
// failure. The passes repeat until a fixpoint, so the result is
// 1-minimal: no single remaining round, process, or edge can be removed
// without losing the violation.

// ShrinkResult is a minimized counterexample.
type ShrinkResult struct {
	// Failure is the minimized failing run (same oracle as the input).
	Failure *Failure
	// Oracle is the preserved failure class.
	Oracle string
	// Executions is the number of candidate runs executed while
	// shrinking.
	Executions int
}

// Shrink minimizes a failure under the given check configuration,
// executing at most maxExecutions candidate runs (0 means 10000). The
// input failure itself is returned unshrunk if its class cannot be
// reproduced (e.g. the budget is 0) — Shrink never loses a
// counterexample, it only tightens one.
func Shrink(f *Failure, cfg Config, maxExecutions int) (*ShrinkResult, error) {
	if len(f.violations) == 0 {
		return &ShrinkResult{Failure: f}, nil
	}
	budget := maxExecutions
	if budget <= 0 {
		budget = 10000
	}
	s := &shrinker{cfg: cfg, oracle: f.violations[0].Oracle, budget: budget}

	cur := f
	for {
		next, err := s.pass(cur)
		if err != nil {
			return nil, err
		}
		if next == nil {
			break
		}
		cur = next
	}
	return &ShrinkResult{Failure: cur, Oracle: s.oracle, Executions: s.used}, nil
}

type shrinker struct {
	cfg    Config
	oracle string
	budget int
	used   int
}

// try executes a candidate and returns its Failure if it still violates
// the target oracle (and budget remains), else nil. A configured
// proposal override is dropped once process removal changes n (the
// canonical 1..n vector takes over — any crafted-proposal violation
// that depends on specific values simply stops shrinking across n).
func (s *shrinker) try(run *adversary.Run) (*Failure, error) {
	if s.used >= s.budget {
		return nil, nil
	}
	s.used++
	cfg := s.cfg
	if cfg.Proposals != nil && len(cfg.Proposals) != run.N() {
		cfg.Proposals = nil
	}
	fail, err := CheckRun(run, cfg)
	if err != nil || fail == nil {
		return nil, err
	}
	for _, v := range fail.violations {
		if v.Oracle == s.oracle {
			return fail, nil
		}
	}
	return nil, nil
}

// pass applies each reduction once and returns the first improvement,
// or nil at a fixpoint.
func (s *shrinker) pass(cur *Failure) (*Failure, error) {
	run := cur.Run

	// Reduction 1: drop a prefix round (later rounds first, so transient
	// tails vanish before load-bearing early rounds are probed).
	prefix, stable := run.CloneGraphs()
	for i := len(prefix) - 1; i >= 0; i-- {
		shorter := make([]*graph.Digraph, 0, len(prefix)-1)
		shorter = append(shorter, prefix[:i]...)
		shorter = append(shorter, prefix[i+1:]...)
		if fail, err := s.try(adversary.NewRun(shorter, stable)); fail != nil || err != nil {
			return fail, err
		}
	}

	// Reduction 2: remove a process.
	for v := run.N() - 1; v >= 0 && run.N() > 1; v-- {
		if fail, err := s.try(run.ProjectOut(v)); fail != nil || err != nil {
			return fail, err
		}
	}

	// Reduction 3: drop a non-self-loop edge from any round graph
	// (stable graph first: it shapes every round from stabilization on).
	graphs := append([]*graph.Digraph{stable}, prefix...)
	for _, g := range graphs {
		for _, e := range g.Edges() {
			if e.From == e.To {
				continue
			}
			g.RemoveEdge(e.From, e.To)
			fail, err := s.try(adversary.NewRun(prefix, stable))
			if fail != nil || err != nil {
				return fail, err
			}
			g.AddEdge(e.From, e.To)
		}
	}
	return nil, nil
}
