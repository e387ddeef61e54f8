package core

import (
	"testing"

	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/skeleton"
)

// runHistory captures everything the lemma tests need from one run:
// per-round approximation graphs, estimates, PT sets and decision state
// for every process, plus the skeleton-with-history tracker.
type runHistory struct {
	n       int
	rounds  int
	procs   []*Process
	tracker *skeleton.Tracker

	// Indexed [round-1][proc].
	approx  [][]*graph.Labeled
	est     [][]int64
	pts     [][]graph.NodeSet
	decided [][]bool
	via     [][]Via
}

// run executes Algorithm 1 under adv for maxRounds rounds (no early stop)
// and records full history.
func run(t *testing.T, adv rounds.Adversary, proposals []int64, maxRounds int, opts Options) *runHistory {
	t.Helper()
	n := adv.N()
	h := &runHistory{n: n, tracker: skeleton.NewTracker(n, true)}
	rec := rounds.ObserverFunc(func(r int, g *graph.Digraph, procs []rounds.Algorithm) {
		ga := make([]*graph.Labeled, n)
		es := make([]int64, n)
		pt := make([]graph.NodeSet, n)
		de := make([]bool, n)
		vi := make([]Via, n)
		for i, ap := range procs {
			p := ap.(*Process)
			ga[i] = p.Approx()
			es[i] = p.Estimate()
			pt[i] = p.PT()
			de[i] = p.Decided()
			vi[i] = p.DecidedVia()
		}
		h.approx = append(h.approx, ga)
		h.est = append(h.est, es)
		h.pts = append(h.pts, pt)
		h.decided = append(h.decided, de)
		h.via = append(h.via, vi)
	})
	res, err := rounds.RunSequential(rounds.Config{
		Adversary:  adv,
		NewProcess: NewFactory(proposals, opts),
		MaxRounds:  maxRounds,
		Observer:   rounds.MultiObserver{h.tracker, rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.rounds = res.Rounds
	h.procs = make([]*Process, n)
	for i, p := range res.Procs {
		h.procs[i] = p.(*Process)
	}
	return h
}

// approxAt returns G^r_p (1-based round).
func (h *runHistory) approxAt(r, p int) *graph.Labeled { return h.approx[r-1][p] }

// distinctDecisions returns the set of decided values; it fails the test
// unless every process decided.
func (h *runHistory) distinctDecisions(t *testing.T) map[int64]bool {
	t.Helper()
	vals := map[int64]bool{}
	for i, p := range h.procs {
		if !p.Decided() {
			t.Fatalf("p%d undecided after %d rounds", i+1, h.rounds)
		}
		v, _ := p.Decision()
		vals[v] = true
	}
	return vals
}

// seqProposals returns the canonical proposal vector 1, 2, ..., n
// (pairwise distinct, process id order).
func seqProposals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// checkValidity asserts every decision is some process's proposal.
func checkValidity(t *testing.T, h *runHistory, proposals []int64) {
	t.Helper()
	valid := map[int64]bool{}
	for _, v := range proposals {
		valid[v] = true
	}
	for i, p := range h.procs {
		if !p.Decided() {
			continue
		}
		v, _ := p.Decision()
		if !valid[v] {
			t.Fatalf("p%d decided %d, not a proposal", i+1, v)
		}
	}
}

// checkIrrevocability asserts decisions never flip and estimates never
// change after deciding.
func checkIrrevocability(t *testing.T, h *runHistory) {
	t.Helper()
	for p := 0; p < h.n; p++ {
		seen := false
		var val int64
		for r := 1; r <= h.rounds; r++ {
			if !h.decided[r-1][p] {
				if seen {
					t.Fatalf("p%d un-decided at round %d", p+1, r)
				}
				continue
			}
			if !seen {
				seen = true
				val = h.est[r-1][p]
				continue
			}
			if h.est[r-1][p] != val {
				t.Fatalf("p%d changed decision from %d to %d at round %d",
					p+1, val, h.est[r-1][p], r)
			}
		}
	}
}

// checkEstimateMonotone asserts Observation 2: xp never increases under
// the line-27 minimum rule. The one legitimate exception is the round in
// which a process adopts a decide message (line 11): the adopted decision
// value may exceed the process's own stale estimate (it is still some
// root component's decision value, so k-agreement is unaffected).
func checkEstimateMonotone(t *testing.T, h *runHistory) {
	t.Helper()
	for p := 0; p < h.n; p++ {
		for r := 2; r <= h.rounds; r++ {
			adoptedNow := h.via[r-1][p] == viaMessage &&
				h.decided[r-1][p] && !h.decided[r-2][p]
			if h.est[r-1][p] > h.est[r-2][p] && !adoptedNow {
				t.Fatalf("p%d estimate rose from %d to %d at round %d",
					p+1, h.est[r-2][p], h.est[r-1][p], r)
			}
		}
	}
}
