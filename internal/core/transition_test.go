package core

import (
	"testing"

	"kset/internal/graph"
)

// White-box unit tests of single Transition steps: each test drives one
// process through hand-built message vectors and checks the pseudocode
// line by line, independent of any executor or adversary.

// msg builds a prop message with the given estimate and graph edges.
func msg(n int, x int64, edges ...[3]int) *Message {
	g := graph.NewLabeled(n)
	for _, e := range edges {
		g.MergeEdge(e[0], e[1], e[2])
	}
	return &Message{Kind: Prop, X: x, G: g}
}

// decideMsg builds a decide message.
func decideMsg(n int, x int64) *Message {
	g := graph.NewLabeled(n)
	return &Message{Kind: Decide, X: x, G: g}
}

func newProc(t *testing.T, self, n int, proposal int64, opts Options) *Process {
	t.Helper()
	p := NewWithOptions(proposal, opts)
	p.Init(self, n)
	return p
}

func TestTransitionLine9PTIntersection(t *testing.T) {
	p := newProc(t, 0, 4, 10, Options{})
	// Round 1: hears p1 (self), p2, p3.
	recv := []any{p.Send(1), msg(4, 20), msg(4, 30), nil}
	p.Transition(1, recv)
	if !p.PT().Equal(graph.NodeSetOf(0, 1, 2)) {
		t.Fatalf("PT = %v", p.PT())
	}
	// Round 2: hears p1, p3 only: PT shrinks to the intersection.
	recv = []any{p.Send(2), nil, msg(4, 30), nil}
	p.Transition(2, recv)
	if !p.PT().Equal(graph.NodeSetOf(0, 2)) {
		t.Fatalf("PT = %v", p.PT())
	}
	// Round 3: hears everyone, but PT can never grow back.
	recv = []any{p.Send(3), msg(4, 20), msg(4, 30), msg(4, 40)}
	p.Transition(3, recv)
	if !p.PT().Equal(graph.NodeSetOf(0, 2)) {
		t.Fatalf("PT grew back: %v", p.PT())
	}
}

func TestTransitionLine17FreshEdges(t *testing.T) {
	p := newProc(t, 1, 3, 5, Options{})
	recv := []any{msg(3, 1), p.Send(1), msg(3, 9)}
	p.Transition(1, recv)
	g := p.Approx()
	for _, from := range []int{0, 1, 2} {
		if g.Label(from, 1) != 1 {
			t.Fatalf("fresh edge p%d->p2 label = %d, want 1", from+1, g.Label(from, 1))
		}
	}
}

func TestTransitionLine27MinOverTimely(t *testing.T) {
	p := newProc(t, 0, 3, 50, Options{})
	recv := []any{p.Send(1), msg(3, 20), msg(3, 80)}
	p.Transition(1, recv)
	if p.Estimate() != 20 {
		t.Fatalf("estimate = %d, want 20", p.Estimate())
	}
	// A smaller value from a process no longer timely must be ignored.
	recv = []any{p.Send(2), nil, msg(3, 1)}
	p.Transition(2, recv)
	// p3 still timely (heard both rounds): 1 adopted.
	if p.Estimate() != 1 {
		t.Fatalf("estimate = %d, want 1", p.Estimate())
	}
	recv = []any{p.Send(3), msg(3, 0), msg(3, 1)}
	p.Transition(3, recv)
	// p2 dropped out of PT in round 2; its 0 must be ignored forever.
	if p.Estimate() != 1 {
		t.Fatalf("estimate = %d, want 1 (0 from non-timely p2)", p.Estimate())
	}
}

func TestTransitionLines10to13DecideAdoption(t *testing.T) {
	p := newProc(t, 0, 3, 50, Options{})
	// Decide message from a timely neighbor: adopt immediately.
	recv := []any{p.Send(1), decideMsg(3, 33), msg(3, 70)}
	p.Transition(1, recv)
	if !p.Decided() || p.DecidedVia() != viaMessage {
		t.Fatal("decide message from timely neighbor not adopted")
	}
	if v, r := p.Decision(); v != 33 || r != 1 {
		t.Fatalf("decision (%d, %d), want (33, 1)", v, r)
	}
}

func TestTransitionDecideFromNonTimelyIgnored(t *testing.T) {
	p := newProc(t, 0, 3, 50, Options{})
	// Round 1: p2 silent -> drops out of PT.
	p.Transition(1, []any{p.Send(1), nil, msg(3, 70)})
	// Round 2: p2 sends a decide message — but p2 ∉ PT: ignore.
	p.Transition(2, []any{p.Send(2), decideMsg(3, 1), msg(3, 70)})
	if p.Decided() {
		t.Fatal("adopted decide message from non-timely process")
	}
}

func TestTransitionLine24Purge(t *testing.T) {
	n := 3
	p := newProc(t, 0, n, 5, Options{})
	// Round 1: p2 forwards an edge labeled 1.
	p.Transition(1, []any{p.Send(1), msg(n, 9, [3]int{2, 1, 1}), msg(n, 9)})
	if p.Approx().Label(2, 1) != 1 {
		t.Fatal("merged edge missing")
	}
	// Rounds 2..n: the label-1 edge must survive until round n and be
	// purged in round n+1 (label <= r-n). Keep re-merging it via p2.
	for r := 2; r <= n+1; r++ {
		p.Transition(r, []any{p.Send(r), msg(n, 9, [3]int{2, 1, 1}), msg(n, 9)})
		got := p.Approx().HasEdge(2, 1)
		if r <= n && !got {
			t.Fatalf("round %d: edge purged too early", r)
		}
		if r == n+1 && got {
			t.Fatalf("round %d: edge survived past the purge window", r)
		}
	}
}

func TestTransitionLine25Prune(t *testing.T) {
	n := 4
	p := newProc(t, 0, n, 5, Options{})
	// p2 forwards an edge p3->p4 — neither endpoint reaches p1, so the
	// prune must drop them; the edge p4->p2 chains into p2->p1 (fresh)
	// and survives.
	forwarded := msg(n, 9, [3]int{2, 3, 1}, [3]int{3, 1, 1})
	p.Transition(1, []any{p.Send(1), forwarded, nil, nil})
	g := p.Approx()
	if g.HasNode(2) && !g.HasEdge(2, 3) {
		t.Fatal("inconsistent prune")
	}
	// p4 reaches p1 via p4->p2->p1: kept. p3->p4 edge: p3 reaches p1
	// through p4: kept too.
	if !g.HasEdge(3, 1) || !g.HasEdge(1, 0) {
		t.Fatalf("reachable chain pruned: %v", g)
	}
	if !g.HasEdge(2, 3) {
		t.Fatalf("p3 reaches p1 via p4, must be kept: %v", g)
	}

	// Now an edge into a dead end: p3->p4 where p4 has no out-edges to
	// anyone reaching p1.
	q := newProc(t, 0, n, 5, Options{})
	deadEnd := msg(n, 9, [3]int{2, 3, 1})
	q.Transition(1, []any{q.Send(1), deadEnd, nil, nil})
	g = q.Approx()
	if g.HasNode(2) || g.HasNode(3) {
		t.Fatalf("dead-end nodes survived prune: %v", g)
	}
}

func TestTransitionMaxMergeAcrossSenders(t *testing.T) {
	n := 3
	p := newProc(t, 0, n, 5, Options{})
	// Two senders carry the same edge with different labels: max wins.
	a := msg(n, 9, [3]int{2, 1, 3})
	b := msg(n, 9, [3]int{2, 1, 7})
	// Labels must be <= r; run at round 8 via 7 warmup rounds.
	for r := 1; r <= 7; r++ {
		p.Transition(r, []any{p.Send(r), msg(n, 9), msg(n, 9)})
	}
	p.Transition(8, []any{p.Send(8), a, b})
	if got := p.Approx().Label(2, 1); got != 7 {
		t.Fatalf("label = %d, want max 7", got)
	}
}

func TestTransitionSelfLossPanics(t *testing.T) {
	p := newProc(t, 0, 2, 1, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("losing own message must panic (model violation)")
		}
	}()
	p.Transition(1, []any{nil, msg(2, 9)})
}

func TestSendKindFollowsDecision(t *testing.T) {
	p := newProc(t, 0, 1, 7, Options{})
	if p.Send(1).(*Message).Kind != Prop {
		t.Fatal("undecided process must send prop")
	}
	p.Transition(1, []any{p.Send(1)})
	if !p.Decided() {
		t.Fatal("singleton must decide at round 1")
	}
	if p.Send(2).(*Message).Kind != Decide {
		t.Fatal("decided process must send decide")
	}
}

func TestTransitionAfterDecisionKeepsApproximating(t *testing.T) {
	// The graph approximation continues after deciding (lines 14-25 are
	// unconditional); only the estimate freezes.
	p := newProc(t, 0, 2, 3, Options{})
	p.Transition(1, []any{p.Send(1), decideMsg(2, 1)})
	if !p.Decided() {
		t.Fatal("setup: should have adopted")
	}
	est := p.Estimate()
	for r := 2; r <= 5; r++ {
		p.Transition(r, []any{p.Send(r), msg(2, 0, [3]int{1, 1, r - 1})})
		if p.Estimate() != est {
			t.Fatal("estimate changed after decision")
		}
		if p.Approx().Label(0, 0) != r {
			t.Fatal("approximation stopped refreshing after decision")
		}
	}
}
