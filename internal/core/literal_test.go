package core

import (
	"fmt"
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/graph"
	"kset/internal/rounds"
)

// litProc is Algorithm 1 read literally off the pseudo-code, lines 1-30:
// sets and label maps, absolute round labels, one graph rebuilt from
// scratch every round, no scratch state and no buffer reuse. It is the
// reference Process is stepped against in lockstep.
type litProc struct {
	self, n, purge, floor int
	mergeOwn              bool

	pt      map[int]bool // PTp
	x       int64        // xp
	nodes   map[int]bool // Vp
	labels  map[[2]int]int
	decided bool
	via     Via
	decideR int
}

// litMsg is the round message (tag, xp, Gp), a deep copy of the sender.
type litMsg struct {
	kind   Kind
	x      int64
	nodes  map[int]bool
	labels map[[2]int]int
}

func newLitProc(self, n int, proposal int64, opts Options) *litProc {
	p := &litProc{self: self, n: n, purge: n, floor: n, mergeOwn: opts.MergeOwnGraph,
		pt: map[int]bool{}, x: proposal, nodes: map[int]bool{self: true}, labels: map[[2]int]int{}}
	if opts.PurgeWindow != 0 {
		p.purge = opts.PurgeWindow
	}
	if opts.ConservativeDecide {
		p.floor = 2*n - 1
	}
	for q := 0; q < n; q++ { // line 1: PTp := Π
		p.pt[q] = true
	}
	return p
}

// send is lines 5-8.
func (p *litProc) send() *litMsg {
	m := &litMsg{kind: Prop, x: p.x, nodes: map[int]bool{}, labels: map[[2]int]int{}}
	if p.decided {
		m.kind = Decide
	}
	for v := range p.nodes {
		m.nodes[v] = true
	}
	for e, l := range p.labels {
		m.labels[e] = l
	}
	return m
}

// transition is lines 9-30; recv[q] is nil when q's message was not
// delivered.
func (p *litProc) transition(r int, recv []*litMsg) {
	for q := range p.pt { // line 9: PTp := PTp ∩ {q : p received q's message}
		if recv[q] == nil {
			delete(p.pt, q)
		}
	}
	if !p.decided { // lines 10-13: adopt the smallest decide value of a timely sender
		for q := range p.pt {
			if m := recv[q]; m.kind == Decide && (p.via != viaMessage || m.x < p.x) {
				p.x, p.decided, p.via, p.decideR = m.x, true, viaMessage, r
			}
		}
	}
	p.nodes, p.labels = map[int]bool{p.self: true}, map[[2]int]int{} // line 15
	for q := range p.pt {
		e := [2]int{q, p.self} // line 17: (q -r-> p)
		p.labels[e] = max(p.labels[e], r)
		if q == p.self && !p.mergeOwn {
			continue
		}
		for v := range recv[q].nodes { // line 18: Vp := Vp ∪ Vq
			p.nodes[v] = true
		}
		for e, l := range recv[q].labels { // lines 19-23: keep the larger label
			p.labels[e] = max(p.labels[e], l)
		}
	}
	for e, l := range p.labels { // line 24: forget edges older than the window
		if l <= r-p.purge {
			delete(p.labels, e)
		}
	}
	reach := p.reach(p.self, 1) // line 25: keep the nodes that reach p
	for v := range p.nodes {
		if !reach[v] {
			delete(p.nodes, v)
			for e := range p.labels {
				if e[0] == v || e[1] == v {
					delete(p.labels, e)
				}
			}
		}
	}
	if p.decided {
		return
	}
	first := true
	for q := range p.pt { // line 27: xp := min over the timely senders
		if first || recv[q].x < p.x {
			p.x = recv[q].x
		}
		first = false
	}
	if r >= p.floor && len(p.reach(p.self, 0)) == len(p.nodes) && len(reach) == len(p.nodes) { // line 28
		p.decided, p.via, p.decideR = true, viaConnectivity, r // line 29
	}
}

// reach returns the nodes reachable from v along edges (dir 0) or
// reaching v (dir 1), by a plain search over the label map.
func (p *litProc) reach(v, dir int) map[int]bool {
	seen := map[int]bool{v: true}
	for stack := []int{v}; len(stack) > 0; {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for e := range p.labels {
			if w := e[1-dir]; e[dir] == u && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// lockstep runs Process and litProc side by side under adv for rounds
// rounds and fails at the first round and process where any of PT, x,
// the decision state or Gp (nodes and every label) differ.
func lockstep(t *testing.T, adv rounds.Adversary, proposals []int64, rounds int, opts Options) {
	t.Helper()
	n := adv.N()
	fast, lit := make([]*Process, n), make([]*litProc, n)
	for i := range fast {
		fast[i] = NewWithOptions(proposals[i], opts)
		fast[i].Init(i, n)
		lit[i] = newLitProc(i, n, proposals[i], opts)
	}
	sent, litSent := make([]any, n), make([]*litMsg, n)
	recv, litRecv := make([]any, n), make([]*litMsg, n)
	for r := 1; r <= rounds; r++ {
		for i := range fast {
			sent[i], litSent[i] = fast[i].Send(r), lit[i].send()
		}
		g := adv.Graph(r)
		for p := range fast {
			for q := range recv {
				recv[q], litRecv[q] = nil, nil
			}
			g.ForEachIn(p, func(q int) { recv[q], litRecv[q] = sent[q], litSent[q] })
			fast[p].Transition(r, recv)
			lit[p].transition(r, litRecv)
		}
		for p := range fast {
			if err := sameState(fast[p], lit[p]); err != nil {
				t.Fatalf("round %d, p%d: %v", r, p+1, err)
			}
		}
	}
}

// sameState compares every piece of Algorithm 1 state of f and l.
func sameState(f *Process, l *litProc) error {
	pt := graph.NewNodeSet(l.n)
	for q := range l.pt {
		pt.Add(q)
	}
	switch {
	case !f.PTView().Equal(pt):
		return fmt.Errorf("PT %v, literal %v", f.PTView(), pt)
	case f.Estimate() != l.x:
		return fmt.Errorf("x = %d, literal %d", f.Estimate(), l.x)
	case f.Decided() != l.decided || f.decideR != l.decideR || f.DecidedVia() != l.via:
		return fmt.Errorf("decided %v in round %d via %v, literal %v in %d via %v",
			f.Decided(), f.decideR, f.DecidedVia(), l.decided, l.decideR, l.via)
	}
	g := f.ApproxView()
	if g.Nodes().Len() != len(l.nodes) || g.NumEdges() != len(l.labels) {
		return fmt.Errorf("Gp has %d nodes %d edges, literal %d and %d", g.Nodes().Len(), g.NumEdges(), len(l.nodes), len(l.labels))
	}
	for v := range l.nodes {
		if !g.HasNode(v) {
			return fmt.Errorf("Gp lacks node p%d", v+1)
		}
	}
	for e, lab := range l.labels {
		if got := g.Label(e[0], e[1]); got != lab {
			return fmt.Errorf("label of p%d->p%d = %d, literal %d", e[0]+1, e[1]+1, got, lab)
		}
	}
	return nil
}

// TestLiteralAlgorithmLockstep steps Process against the literal
// reference over every adversary family, both decision guards, purge
// windows n-1, n and 2n, and MergeOwnGraph on and off, for 4n+8 rounds
// so the purge window wraps several times.
func TestLiteralAlgorithmLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	families := []struct {
		name string
		adv  rounds.Adversary
	}{
		{"figure1", adversary.Figure1()},
		{"violation", adversary.ConsensusViolation()},
		{"lowerbound", adversary.LowerBound(6, 3)},
		{"complete", adversary.Complete(5)},
		{"isolation", adversary.Isolation(4)},
		{"sources", adversary.RandomSources(9, 2, 6, 0.3, rng)},
		{"hubs", adversary.HubClusters(12, 3, 5, 0.2, rng)},
		{"singlesource", adversary.RandomSingleSource(8, 5, 0.2, 0.4, rng)},
		{"randomrun", adversary.RandomRun(7, 6, rng)},
		{"crashes", func() rounds.Adversary { a, _ := adversary.RandomCrashes(7, 2, 12, rng); return a }()},
		{"partition", adversary.Partition(8, adversary.EvenPartition(8, 3))},
		{"churn", adversary.NewChurn(adversary.RandomSources(7, 2, 0, 0, rng).Graph(1), 0.3, 5)},
		{"mobile", adversary.NewMobile(7, 2, 9, 6)},
		{"partitionmerge", adversary.NewPartitionMerge(8, 3, 5, 7)},
		{"tinterval", adversary.NewTInterval(7, 3, 40, 2, 8)},
		{"vertexstable", adversary.NewVertexStableRoot(8, 3, 0.3, 9)},
	}
	for _, f := range families {
		n := f.adv.N()
		proposals := seqProposals(n)
		if f.name == "violation" {
			proposals = adversary.ConsensusViolationProposals()
		}
		for _, conservative := range []bool{false, true} {
			for _, window := range []int{n - 1, 0, 2 * n} {
				for _, own := range []bool{false, true} {
					opts := Options{ConservativeDecide: conservative, PurgeWindow: window, MergeOwnGraph: own}
					t.Run(fmt.Sprintf("%s/%+v", f.name, opts), func(t *testing.T) {
						lockstep(t, f.adv, proposals, 4*n+8, opts)
					})
				}
			}
		}
	}
}
