package transport

import (
	"fmt"
	"sync"
	"time"
)

// mesh is the round-mesh core every transport in this package is built
// on: it owns everything about closing a round that is not a socket.
// Processes are partitioned contiguously across m mesh nodes. Each node
// hosts its processes' mailboxes; co-hosted delivery is a direct deposit
// and never leaves memory. For the other nodes, each node runs one
// writer event loop that waits for every live hosted sender's round-r
// contribution, coalesces them into one frame body per peer node
// (frame.go), and hands the bodies to the link; bodies the link receives
// are fanned back out into the hosted mailboxes. Goroutines, frames and
// link operations per round scale with nodes, not with processes.
//
// The three exported transports are this core under three links: InProc
// is the single-node mesh, which needs no link at all; TCPMesh carries
// bodies over one duplex stream per node pair; UDPMesh over one
// datagram socket per node.
type mesh struct {
	n, m    int
	pol     Policy
	perfect bool // pol is Perfect: skip the per-link Deliver calls
	opts    meshOpts
	nodes   []*meshNode
	link    link // nil on a single-node mesh
	done    chan struct{}

	mu        sync.Mutex
	claimed   []bool
	closed    bool
	deadNodes []bool
}

// meshOpts is what the exported option structs reduce to at the core.
type meshOpts struct {
	// deadline and grace are the mailboxes' closure policy (see mailbox):
	// deadline 0 closes rounds by count only.
	deadline, grace time.Duration
	deadAfter       int            // stall-detector verdict threshold; 0 = no detector
	counters        *StallCounters // may be nil
	meter           *HeardMeter    // may be nil
}

// link moves finished frame bodies between mesh nodes. The core calls
// send once per peer node per round from the sending node's writer loop,
// then flush; the link hands every body it receives to the receiving
// node's deliver. Loss is the link's to absorb (a datagram the kernel
// refused, a stream that is down but may come back): send and flush
// return an error only when the node is cut off for good, and the core
// then fails the node's processes. A link that gives up on a peer
// reports it through mesh.markNodeDead.
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
// nodes and mailboxes. On a multi-node mesh the caller then sets link
// (before opening any socket, so that Close releases a half-built link)
// and, once the link can send and receive, calls startWriters.
func newMesh(n, nodes int, pol Policy, opts meshOpts) (*mesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: n = %d, need >= 1", n)
	}
	if nodes < 1 || nodes > n {
		return nil, fmt.Errorf("transport: nodes = %d, need 1 <= nodes <= n = %d", nodes, n)
	}
	if pol == nil {
		pol = Perfect{}
	}
	t := &mesh{
		n:       n,
		m:       nodes,
		pol:     pol,
		opts:    opts,
		claimed: make([]bool, n),
		done:    make(chan struct{}),
	}
	_, t.perfect = pol.(Perfect)
	for i := 0; i < t.m; i++ {
		nd := &meshNode{t: t, id: i, lo: t.nodeLo(i), hi: t.nodeLo(i + 1)}
		nd.cond.L = &nd.mu
		nd.boxes = make([]*mailbox, nd.localN())
		for j := range nd.boxes {
			nd.boxes[j] = newMailbox(n, opts.deadline, opts.grace)
		}
		if t.m > 1 {
			for r := range nd.pending {
				nd.pending[r] = make([]*refBuf, nd.localN())
			}
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

// core is how Metered, CountClosed and NodeOf reach the mesh inside an
// exported transport, which embeds it.
func (t *mesh) core() *mesh { return t }

// CountClosed reports whether only arrivals pace a Gather on tr — what an
// executor must know before one goroutine steps several endpoints: tr is
// one of this package's meshes and closes rounds by count only, so a
// Gather never waits out a clock and nothing ever notices a sender that
// fell silent unannounced. False for a transport that is not a mesh:
// nothing is known about it.
func CountClosed(tr Transport) bool {
	c, ok := tr.(interface{ core() *mesh })
	return ok && c.core().opts.deadline == 0
}

// NodeOf reports tr's node partition: process p lives on node NodeOf(tr)[p],
// and a link between two processes of one node never leaves memory, so an
// executor may hand its receiver the message itself once Gather says the
// link delivered. nil for a transport that is not a mesh: nothing is known.
func NodeOf(tr Transport) []int {
	c, ok := tr.(interface{ core() *mesh })
	if !ok {
		return nil
	}
	nodes := make([]int, c.core().n)
	for _, nd := range c.core().nodes {
		for p := nd.lo; p < nd.hi; p++ {
			nodes[p] = nd.id
		}
	}
	return nodes
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

// startWriters launches the nodes' writer loops.
func (t *mesh) startWriters() {
	for _, nd := range t.nodes {
		go nd.writeLoop()
	}
}

// nodeLo returns the first process hosted by node i (processes are
// partitioned contiguously and evenly: node i hosts [nodeLo(i),
// nodeLo(i+1))).
func (t *mesh) nodeLo(i int) int { return i * t.n / t.m }

// nodeOf returns the node hosting process p.
func (t *mesh) nodeOf(p int) int {
	// Inverse of nodeLo's balanced split; the scan is O(m) but only runs
	// at Endpoint claim time and on death verdicts.
	for i := 0; i < t.m; i++ {
		if p >= t.nodeLo(i) && p < t.nodeLo(i+1) {
			return i
		}
	}
	return -1
}

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
	nd := t.nodes[t.nodeOf(self)]
	return &meshEndpoint{
		nd:    nd,
		self:  self,
		box:   nd.boxes[self-nd.lo],
		drops: make([]bool, nd.localN()),
		stall: newStallDetector(t.n, t.opts.deadAfter, func(q int) {
			t.markNodeDead(t.nodeOf(q))
		}),
	}, nil
}

// MarkDead implements DeadMarker: process p's missing deliveries from
// round fromRound onward become permanent nil tombstones at every
// hosted mailbox of every node — count-closed rounds stop wedging on it,
// deadline-closed rounds stop waiting out its silence — and p's own
// node's writer stops waiting for its contributions (its frame slots
// ship as drop tombstones). This single call patches the whole mesh
// because a loopback mesh is one object; on a real multi-host deployment
// each host applies the same verdict to its local view when its own
// detector fires.
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
		for _, b := range nd.boxes {
			b.markDead(p, fromRound)
		}
	}
	nd := t.nodes[t.nodeOf(p)]
	nd.markDeadLocal(p-nd.lo, fromRound)
}

// markNodeDead is the terminal verdict of a stall detector or of a link
// that gave up on a peer (an exhausted reconnect budget): every process
// hosted by the peer node is declared dead from the beginning — an OS
// process dying takes every co-located participant with it. Idempotent.
func (t *mesh) markNodeDead(peer int) {
	t.mu.Lock()
	if t.closed || (t.deadNodes != nil && t.deadNodes[peer]) {
		t.mu.Unlock()
		return
	}
	if t.deadNodes == nil {
		t.deadNodes = make([]bool, t.m)
	}
	t.deadNodes[peer] = true
	t.mu.Unlock()
	lo, hi := t.nodeLo(peer), t.nodeLo(peer+1)
	if c := t.opts.counters; c != nil {
		c.Dead.Add(int64(hi - lo))
	}
	for p := lo; p < hi; p++ {
		t.MarkDead(p, 1)
	}
}

// Close implements Transport: it tears down the link and the writer
// loops and wakes every parked Gather with ErrClosed. Idempotent and
// safe from any goroutine.
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
		nd.mu.Lock()
		nd.cond.Broadcast() // writer loop re-checks t.done and exits
		nd.mu.Unlock()
		for _, b := range nd.boxes {
			b.close()
		}
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

// meshNode is one event-loop domain of the mesh: the processes it
// hosts, their receive mailboxes, and the outbound round-aggregation
// state its writer loop consumes.
type meshNode struct {
	t      *mesh
	id     int
	lo, hi int // hosted processes [lo, hi)
	boxes  []*mailbox

	mu       sync.Mutex
	cond     sync.Cond
	pending  [window][]*refBuf // [r%window][local sender] round contributions
	pcount   [window]int
	deadFrom []int // per local sender: first dead round (0 = alive), lazily allocated
}

func (nd *meshNode) localN() int { return nd.hi - nd.lo }

// liveTargetLocked is the number of round-r contributions the writer
// loop must wait for: the hosted senders not yet declared dead for r.
func (nd *meshNode) liveTargetLocked(r int) int {
	target := nd.localN()
	for _, f := range nd.deadFrom {
		if f != 0 && f <= r {
			target--
		}
	}
	return target
}

// markDeadLocal records a hosted sender's death for the writer loop: the
// writer stops waiting for its contributions from fromRound onward and
// ships its frame slots as drop tombstones.
func (nd *meshNode) markDeadLocal(local, fromRound int) {
	if fromRound < 1 {
		fromRound = 1
	}
	nd.mu.Lock()
	if nd.deadFrom == nil {
		nd.deadFrom = make([]int, nd.localN())
	}
	if nd.deadFrom[local] == 0 || nd.deadFrom[local] > fromRound {
		nd.deadFrom[local] = fromRound
		nd.cond.Broadcast()
	}
	nd.mu.Unlock()
}

// contribute hands a local sender's round-r payload to the writer loop.
func (nd *meshNode) contribute(local, r int, rb *refBuf) error {
	nd.mu.Lock()
	if nd.pending[r%window][local] != nil {
		nd.mu.Unlock()
		return fmt.Errorf("transport: p%d round %d overran the writer window", nd.lo+local+1, r)
	}
	nd.pending[r%window][local] = rb
	nd.pcount[r%window]++
	if nd.pcount[r%window] >= nd.liveTargetLocked(r) {
		nd.cond.Broadcast()
	}
	nd.mu.Unlock()
	return nil
}

// writeLoop is the node's single outbound event loop: for each round in
// order, once every live hosted process has contributed its payload, it
// coalesces them into one frame body per peer node and hands each to
// the link, then flushes the round. A dead local sender's contribution
// is never waited for.
func (nd *meshNode) writeLoop() {
	t := nd.t
	bufs := make([]*refBuf, nd.localN())
	var body []byte
	for r := 1; ; r++ {
		nd.mu.Lock()
		for {
			target := nd.liveTargetLocked(r)
			if target == 0 {
				// The whole node is dead. Its receivers' slots are already
				// pre-filled mesh-wide by the death verdict; nothing left
				// to ship, ever.
				nd.mu.Unlock()
				return
			}
			if nd.pcount[r%window] >= target || closed(t.done) {
				break
			}
			nd.cond.Wait()
		}
		if closed(t.done) {
			nd.mu.Unlock()
			return
		}
		copy(bufs, nd.pending[r%window])
		for i := range nd.pending[r%window] {
			nd.pending[r%window][i] = nil
		}
		nd.pcount[r%window] = 0
		nd.mu.Unlock()

		var err error
		for j := 0; j < t.m && err == nil && !closed(t.done); j++ {
			if j == nd.id {
				continue
			}
			body = nd.appendFrameBody(body[:0], r, j, bufs)
			err = t.link.send(nd.id, j, r, body)
		}
		if err == nil {
			err = t.link.flush(nd.id)
		}
		for _, rb := range bufs {
			if rb != nil {
				rb.release()
			}
		}
		if closed(t.done) {
			return
		}
		if err != nil {
			// Without its link the node is partitioned for good, so fail
			// its processes rather than stall them.
			nd.failLocal(err)
			return
		}
	}
}

// deliver fans a round frame body received from peer node out to the
// hosted mailboxes: each sender's payload (shared, reference-counted) or
// drop tombstone goes straight into every local receiver's round slot.
// A body that fails validation mid-walk stops there — the deposits
// already made stand — and the error is the link's to interpret (a
// corrupt stream is a failure, a corrupt datagram is loss).
func (nd *meshNode) deliver(peer, round int, body []byte) error {
	t := nd.t
	peerLo := t.nodeLo(peer)
	snd := t.nodeLo(peer+1) - peerLo
	rcv := nd.localN()
	return decodeFrameBody(body, snd, rcv, func(si, delivered int, payload, bitmap []byte) {
		var rb *refBuf
		if delivered > 0 {
			rb = newRefBuf(payload, int32(delivered))
		}
		for qi := 0; qi < rcv; qi++ {
			bit := si*rcv + qi
			if rb != nil && bitmap[bit>>3]&(1<<(bit&7)) != 0 {
				nd.boxes[qi].deposit(peerLo+si, round, rb.b, rb)
			} else {
				nd.boxes[qi].deposit(peerLo+si, round, nil, nil)
			}
		}
	})
}

// failLocal surfaces a link failure to every process this node hosts,
// unless the transport is already closing (teardown makes writes and
// reads fail by design).
func (nd *meshNode) failLocal(err error) {
	if closed(nd.t.done) {
		return
	}
	for _, b := range nd.boxes {
		b.fail(err)
	}
}

// meshEndpoint is process self's port onto a mesh.
type meshEndpoint struct {
	nd    *meshNode
	self  int
	box   *mailbox
	drops []bool         // per-broadcast local drop decisions, reused across rounds
	stall *stallDetector // nil unless deadAfter > 0
}

// Self implements Endpoint.
func (ep *meshEndpoint) Self() int { return ep.self }

// N implements Endpoint.
func (ep *meshEndpoint) N() int { return ep.nd.t.n }

// Broadcast implements Endpoint. The payload is copied once into a
// pooled buffer shared (read-only) by every co-hosted receiver it is
// delivered to — a direct deposit, no link involved; locally dropped
// links get a tombstone deposit so the receivers' rounds still close.
// On a multi-node mesh one extra reference goes to the node's writer
// loop, which makes the drop decisions for remote links when it builds
// the frame bitmaps.
func (ep *meshEndpoint) Broadcast(r int, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("transport: payload %d bytes exceeds MaxPayload %d", len(payload), MaxPayload)
	}
	nd := ep.nd
	t := nd.t
	if closed(t.done) {
		return ErrClosed
	}
	refs := int32(0)
	for i := range ep.drops {
		to := nd.lo + i
		drop := to != ep.self && !t.pol.Deliver(r, ep.self, to)
		ep.drops[i] = drop
		if !drop {
			refs++
		}
	}
	if t.m > 1 {
		refs++ // the writer loop's reference
	}
	rb := newRefBuf(payload, refs) // >= 1: self-delivery is unconditional
	for i, drop := range ep.drops {
		if drop {
			nd.boxes[i].deposit(ep.self, r, nil, nil)
		} else {
			nd.boxes[i].deposit(ep.self, r, rb.b, rb)
		}
	}
	if t.m > 1 {
		return nd.contribute(ep.self-nd.lo, r, rb)
	}
	return nil
}

// Gather implements Endpoint: it blocks until round r closes under the
// mailbox's policy, counts the senders a deadline closure gave up on and
// feeds them to the stall detector, and records the realized heard-set on
// the meter if one is attached.
func (ep *meshEndpoint) Gather(r int, into [][]byte) ([][]byte, error) {
	t := ep.nd.t
	recv, missed, err := ep.box.await(r, into)
	if err != nil {
		return nil, err
	}
	if len(missed) > 0 {
		if c := t.opts.counters; c != nil {
			c.Stalls.Add(int64(len(missed)))
		}
		ep.stall.observe(r, missed)
	}
	if t.opts.meter != nil {
		t.opts.meter.Record(r, ep.self, recv)
	}
	return recv, nil
}

// Close implements Endpoint: endpoints share the transport's lifetime
// (links are per node, not per process, and an in-memory mesh has no
// per-endpoint state to tear down), so closing one closes the whole
// mesh. Idempotent.
func (ep *meshEndpoint) Close() error { return ep.nd.t.Close() }
