package transport

import (
	"fmt"
	"sync"
	"time"

	"kset/internal/graph"
)

// mesh is the round-mesh core every transport in this package is built
// on: it owns everything about closing a round that is not a socket.
// Processes are partitioned contiguously across m mesh nodes. Each node
// has one mailbox, the round ring its hosted processes all read; a
// sender's payload and its delivery row — the policy's one answer for
// its round — are one write into it, so co-hosted delivery never leaves
// memory. For the other nodes, the call that completes a node's round —
// the last live hosted sender's Broadcast, or the death verdict on the
// last one unposted — ships it: it cuts each peer node's frame bitmap
// out of the same rows, coalesces one frame body per peer node
// (frame.go), and hands the bodies to the link; a body the link
// receives goes into the node's ring under one lock. The only
// goroutines are the link's readers; frames and link operations per
// round scale with nodes.
//
// The three exported transports are this core under three links: InProc
// is the single-node mesh, which needs no link at all; TCPMesh carries
// bodies over one duplex stream per node pair; UDPMesh over one
// datagram socket per node.
type mesh struct {
	n, m  int
	pol   Policy
	opts  meshOpts
	nodes []*meshNode
	link  link // nil on a single-node mesh
	done  chan struct{}

	mu      sync.Mutex
	claimed []bool
	closed  bool
}

// meshOpts is what the exported option structs reduce to at the core.
type meshOpts struct {
	// deadline and grace are the mailboxes' closure policy (see mailbox):
	// deadline 0 closes rounds by count only.
	deadline, grace time.Duration
	deadAfter       int            // consecutive sealed-round misses that forget a peer node; 0 = never
	counters        *StallCounters // may be nil
	meter           *HeardMeter    // may be nil
}

// link moves finished frame bodies between mesh nodes. The core calls
// send once per peer node per round from the call that ships the sending
// node's round (one at a time per node, in round order), then flush; the
// link hands every body it receives to the receiving node's deliver.
// Loss is the link's to absorb (a datagram the kernel refused, a frame
// on a stream lost in chaos mode): send and flush return an error only
// when the node is cut off for good, and the core then fails the node's
// processes. A link that loses a peer node rules on it for the node at
// its own end alone, through meshNode.forget.
type link interface {
	// send ships node from's round-r frame body to node to. body is valid
	// only during the call.
	send(from, to, r int, body []byte) error
	// flush ends node from's round: everything sent since the last flush
	// must be on its way when it returns.
	flush(from int) error
	// close releases the link's sockets and unblocks its loops. Called
	// once, after mesh.done is closed.
	close()
}

// newMesh validates the shape shared by every constructor and builds the
// nodes and their mailboxes. On a multi-node mesh the caller then sets link
// before opening any socket, so that Close releases a half-built link.
func newMesh(n, nodes int, pol Policy, opts meshOpts) (*mesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: n = %d, need >= 1", n)
	}
	if nodes < 1 || nodes > n {
		return nil, fmt.Errorf("transport: nodes = %d, need 1 <= nodes <= n = %d", nodes, n)
	}
	if pol == nil {
		pol = perfect{graph.FullNodeSet(n)}
	}
	t := &mesh{
		n:       n,
		m:       nodes,
		pol:     pol,
		opts:    opts,
		claimed: make([]bool, n),
		done:    make(chan struct{}),
	}
	for i := 0; i < t.m; i++ {
		nd := &meshNode{t: t, id: i, lo: t.nodeLo(i), hi: t.nodeLo(i + 1), peers: make([]peerWatch, t.m)}
		nd.box = newMailbox(n, nd.lo, nd.localN(), opts.deadline, opts.grace)
		nd.box.node = nd
		if t.m > 1 {
			nd.box.next = 1
			nd.bufs, nd.rows = make([][]byte, nd.localN()), make([]graph.NodeSet, nd.localN())
		}
		t.nodes = append(t.nodes, nd)
	}
	if opts.meter != nil {
		if err := t.setMeter(opts.meter); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// core is how Metered and Partition reach the mesh inside an exported
// transport, which embeds it.
func (t *mesh) core() *mesh { return t }

// Partition reports what an executor may know about tr. node[p] is the
// mesh node hosting process p: a link between two processes of one node
// never leaves memory, so an executor may hand its receiver the message
// itself once Gather says the link delivered, and one goroutine may
// step a node's endpoints: its first Gather waits out the round for all
// of them. byCount is whether only arrivals pace a Gather — the mesh
// closes rounds by count, so a Gather never waits out a clock and
// nothing ever notices a sender that fell silent unannounced. For a
// transport that is not one of this package's meshes nothing is known:
// nil and false.
func Partition(tr Transport) (node []int, byCount bool) {
	c, ok := tr.(interface{ core() *mesh })
	if !ok {
		return nil, false
	}
	t := c.core()
	node = make([]int, t.n)
	for p := range node {
		node[p] = t.nodeOf(p)
	}
	return node, t.opts.deadline == 0
}

// setMeter installs the heard meter Gather records on. Endpoints read it
// without a lock, so it can only change while none is claimed.
func (t *mesh) setMeter(m *HeardMeter) error {
	if m.n != t.n {
		return fmt.Errorf("transport: meter for n = %d on an n = %d mesh", m.n, t.n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for p, claimed := range t.claimed {
		if claimed {
			return fmt.Errorf("transport: meter attached after endpoint %d was claimed", p)
		}
	}
	t.opts.meter = m
	return nil
}

// nodeLo returns the first process hosted by node i (processes are
// partitioned contiguously and evenly: node i hosts [nodeLo(i),
// nodeLo(i+1))).
func (t *mesh) nodeLo(i int) int { return i * t.n / t.m }

// nodeOf returns the node hosting process p, the inverse of nodeLo: the
// last i with i*n/m <= p.
func (t *mesh) nodeOf(p int) int { return ((p+1)*t.m - 1) / t.n }

// N implements Transport.
func (t *mesh) N() int { return t.n }

// Endpoint implements Transport.
func (t *mesh) Endpoint(self int) (Endpoint, error) {
	if self < 0 || self >= t.n {
		return nil, fmt.Errorf("transport: endpoint id %d out of range [0,%d)", self, t.n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if t.claimed[self] {
		return nil, fmt.Errorf("transport: endpoint %d already claimed", self)
	}
	t.claimed[self] = true
	return &meshEndpoint{nd: t.nodes[t.nodeOf(self)], self: self, row: graph.NewNodeSet(t.n)}, nil
}

// MarkDead implements DeadMarker: process p's missing deliveries from
// round fromRound onward become permanent nil tombstones in every
// node's mailbox — count-closed rounds stop wedging on it,
// deadline-closed rounds stop waiting out its silence — and p's own
// node stops waiting for its posts (they ship as drop tombstones; a
// verdict that completes the node's round ships it). An announced crash
// is a supervisor's notice, so it is the one verdict that reaches every
// node: a node whose processes have all crashed has no receiver that
// gathers, and its ring takes no round past asked+2, so it cannot pace
// tombstone frames of its own.
// What a node concludes from silence stays in its own mailbox (forget).
//
// On the in-process mesh an announced verdict is the only way a run
// survives a crashed process — which is also the only way an in-proc
// process can die, since there is no OS boundary for an unannounced
// crash to hide behind.
func (t *mesh) MarkDead(p, fromRound int) {
	if p < 0 || p >= t.n {
		return
	}
	for _, nd := range t.nodes {
		nd.box.mu.Lock()
		nd.box.markDeadLocked(p, fromRound)
		nd.shipUnlock()
	}
}

// Close implements Transport: it tears down the link and wakes every
// parked Gather with ErrClosed. Idempotent and safe from any goroutine.
func (t *mesh) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.done)
	if t.link != nil {
		t.link.close()
	}
	for _, nd := range t.nodes {
		nd.box.close() // parked Gathers wake and return
	}
	return nil
}

// closed reports whether the done channel is closed without blocking.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// meshNode is one event-loop domain of the mesh: the processes it hosts
// and the mailbox they share, which is also the outbound round state its
// ship reads.
type meshNode struct {
	t      *mesh
	id     int
	lo, hi int // hosted processes [lo, hi)
	box    *mailbox
	peers  []peerWatch // per node, under box.mu

	// The ship's views and frame scratch, owned by the call holding the
	// node's claim (multi-node mesh only).
	bufs [][]byte
	rows []graph.NodeSet
	body []byte
}

func (nd *meshNode) localN() int { return nd.hi - nd.lo }

// forget is the one place a node stops waiting for a peer node, for a
// stall verdict or a lost link alike: every process peer hosts is
// declared dead, from the beginning, in nd's mailbox alone, and counted
// in StallCounters.Dead. Once per peer, and never while the mesh closes.
func (nd *meshNode) forget(peer int) {
	nd.box.mu.Lock()
	nd.forgetLocked(peer)
	nd.box.mu.Unlock()
}

func (nd *meshNode) forgetLocked(peer int) {
	t := nd.t
	if nd.peers[peer].forgotten || closed(t.done) {
		return
	}
	nd.peers[peer].forgotten = true
	lo, hi := t.nodeLo(peer), t.nodeLo(peer+1)
	for p := lo; p < hi; p++ {
		nd.box.markDeadLocked(p, 1)
	}
	if c := t.opts.counters; c != nil {
		c.Dead.Add(int64(hi - lo))
	}
}

// shipUnlock ships every round of the node that is complete, in order,
// and releases box.mu, which the caller holds: a hosted sender's post or
// death verdict is what completes a round, so the call that made it
// ships it. It claims the round under the lock and outside it sends one
// frame body per peer node, then flushes; a round that completes while
// another call holds the claim is shipped by that call, after its own.
func (nd *meshNode) shipUnlock() {
	b := nd.box
	for r := b.claimLocked(nd.bufs, nd.rows); r != 0; r = b.claimLocked(nd.bufs, nd.rows) {
		b.mu.Unlock()
		err := nd.ship(r)
		b.mu.Lock()
		b.next, b.claimed = r+1, false
		if err != nil && !closed(nd.t.done) {
			// Without its link the node is cut off for good, so fail its
			// processes rather than stall them.
			b.failLocked(err)
		}
	}
	b.mu.Unlock()
}

// ship hands the link round r's frame body for every peer node, then
// flushes the round.
func (nd *meshNode) ship(r int) error {
	t := nd.t
	for j := 0; j < t.m && !closed(t.done); j++ {
		if j == nd.id {
			continue
		}
		nd.body = nd.appendFrameBody(nd.body[:0], j)
		if err := t.link.send(nd.id, j, r, nd.body); err != nil {
			return err
		}
	}
	return t.link.flush(nd.id)
}

// deliver writes a round frame body received from peer node into the
// node's mailbox under one lock: each sender's payload once, its bitmap
// row as its delivery row over the hosted receivers. A body that fails
// validation mid-walk stops there — the deposits already made stand —
// and the error is the link's to interpret (a corrupt stream is a
// failure, a corrupt datagram is loss).
func (nd *meshNode) deliver(peer, round int, body []byte) error {
	t, b := nd.t, nd.box
	peerLo := t.nodeLo(peer)
	snd := t.nodeLo(peer+1) - peerLo
	rcv := nd.localN()
	b.mu.Lock()
	defer b.mu.Unlock()
	return decodeFrameBody(body, snd, rcv, func(si, _ int, payload, bitmap []byte) {
		b.row.Clear()
		for qi := 0; qi < rcv; qi++ {
			if bit := si*rcv + qi; bitmap[bit>>3]&(1<<(bit&7)) != 0 {
				b.row.Add(nd.lo + qi)
			}
		}
		b.depositLocked(peerLo+si, round, payload, b.row)
	})
}

// failLocal surfaces a link failure to every process this node hosts,
// unless the transport is already closing (teardown makes writes and
// reads fail by design).
func (nd *meshNode) failLocal(err error) {
	if closed(nd.t.done) {
		return
	}
	nd.box.fail(err)
}

// meshEndpoint is process self's port onto a mesh.
type meshEndpoint struct {
	nd   *meshNode
	self int
	row  graph.NodeSet // this round's delivery row, filled by the policy
}

// Self implements Endpoint.
func (ep *meshEndpoint) Self() int { return ep.self }

// N implements Endpoint.
func (ep *meshEndpoint) N() int { return ep.nd.t.n }

// Broadcast implements Endpoint: the policy answers once for the sender's
// round — its row of receivers, plus itself — and payload and row go
// into the node's mailbox in one write, no link involved; a dropped link
// is a cleared bit, so the receivers' round still closes. On a
// multi-node mesh the Broadcast that completes the node's round ships
// it (shipUnlock), reading payload and row out of the same slot and
// cutting each peer node's frame bitmap out of the row.
func (ep *meshEndpoint) Broadcast(r int, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("transport: payload %d bytes exceeds MaxPayload %d", len(payload), maxPayload)
	}
	nd := ep.nd
	t := nd.t
	if closed(t.done) {
		return ErrClosed
	}
	ep.row.Clear()
	t.pol.Deliver(r, ep.self, ep.row)
	ep.row.Add(ep.self) // self-delivery is the mesh's rule, never the policy's
	nd.box.mu.Lock()
	nd.box.depositLocked(ep.self, r, payload, ep.row)
	nd.shipUnlock()
	return nil
}

// Gather implements Endpoint: it blocks until round r closes under the
// mailbox's policy, counts the senders a deadline closure gave up on,
// and records the realized heard-set on the meter if one is attached.
func (ep *meshEndpoint) Gather(r int, into [][]byte) ([][]byte, error) {
	t := ep.nd.t
	recv, missed, err := ep.nd.box.await(ep.self-ep.nd.lo, r, into)
	if err != nil {
		return nil, err
	}
	if c := t.opts.counters; c != nil && len(missed) > 0 {
		c.Stalls.Add(int64(len(missed)))
	}
	if t.opts.meter != nil {
		t.opts.meter.record(r, ep.self, recv)
	}
	return recv, nil
}

// Close implements Endpoint: endpoints share the transport's lifetime
// (links are per node, not per process, and an in-memory mesh has no
// per-endpoint state to tear down), so closing one closes the whole
// mesh. Idempotent.
func (ep *meshEndpoint) Close() error { return ep.nd.t.Close() }
