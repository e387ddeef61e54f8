package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPMesh is the mesh over reliable streams: each unordered node pair
// shares ONE duplex TCP stream, and all of a round's messages from one
// node to another ship as a single length-prefixed frame (frame.go: drop
// bitmap over the sender x receiver link matrix, each sender's payload
// exactly once). Connections and syscalls per round are O(nodes²), the
// bytes crossing the wire shrink by the receiver fan-in factor, and
// co-located delivery never touches a socket at all.
//
// With nodes == n every process is its own node — the fully distributed
// one-process-per-socket-endpoint shape the E18 measurements used; with
// nodes < n the transport models a cluster
// whose co-located sessions multiplex one link per peer, the deployment
// shape the agreement service is growing toward.
//
// Stream layout (after a one-time uvarint node-id handshake by the
// dialing side of each stream), per round:
//
//	uvarint frame length (bytes that follow)
//	uvarint round
//	frame body (frame.go)
type TCPMesh struct {
	*mesh
	sl *streamLink // nil on a single-node mesh, which never opens a socket
}

// TCPOpts tunes a TCP mesh beyond the lockstep-exact defaults. The zero
// value is the classic reliable mesh: a missing frame blocks Gather
// until it arrives or the transport fails — the right contract for
// differential suites, and a wedge under a crashed peer. RoundTimeout > 0
// enables chaos mode, the machinery that turns an unannounced peer death
// into a bounded number of wasted deadlines instead of a wedged run:
// receive mailboxes switch to the deadline+grace closure the UDP mesh
// uses (a dead peer costs a deadline, not the run), the stall detector
// turns consecutive silence into a terminal death verdict (DeadAfter),
// and broken streams are redialed with jittered exponential backoff up to
// MaxReconnect before the peer node is declared dead. Off by default so
// lockstep-exact suites keep the reliable contract. What each zero value
// means is in the package comment's option table.
type TCPOpts struct {
	// RoundTimeout is the receiver's per-round closure deadline: a Gather
	// waits at most RoundTimeout (plus Grace extensions while frames are
	// still trickling in) before recording missing senders as losses,
	// exactly the UDP mesh's rule.
	RoundTimeout time.Duration
	// Grace extends a timed-out round while progress continues.
	Grace time.Duration
	// DeadAfter is the stall detector's verdict threshold, as
	// UDPOpts.DeadAfter.
	DeadAfter int
	// MaxReconnect bounds redials of a broken stream (dialer side). While
	// the budget lasts the peer's frames are treated as loss; when it
	// runs out the peer node gets a terminal death verdict.
	MaxReconnect int
	// Counters, when non-nil, receives stall/retry/death events.
	Counters *StallCounters

	// reconnectBase and reconnectMax bound the jittered exponential
	// backoff between redials: attempt k sleeps base<<(k-1) capped at
	// max, plus up to half that again of jitter keyed on (node, peer,
	// attempt). 5ms and 500ms; only the teardown tests park a redial
	// longer.
	reconnectBase, reconnectMax time.Duration
}

// withDefaults fills the derived defaults of the option table.
func (o TCPOpts) withDefaults() TCPOpts {
	if o.RoundTimeout > 0 && o.Grace == 0 {
		o.Grace = max(o.RoundTimeout/8, 100*time.Microsecond)
	}
	if o.reconnectBase <= 0 {
		o.reconnectBase = 5 * time.Millisecond
	}
	if o.reconnectMax <= 0 {
		o.reconnectMax = 500 * time.Millisecond
	}
	return o
}

// backoff returns the sleep before redial attempt k (1-based):
// exponential from reconnectBase, capped at reconnectMax, with up to
// +50% of deterministic jitter so a partitioned mesh's redials don't
// thundering-herd in phase.
func (o TCPOpts) backoff(node, peer, attempt int) time.Duration {
	d := o.reconnectBase << (attempt - 1)
	if d <= 0 || d > o.reconnectMax {
		d = o.reconnectMax
	}
	h := mix64(uint64(node)<<40 ^ uint64(peer)<<24 ^ uint64(attempt))
	return d + time.Duration(h%uint64(d/2+1))
}

// NewTCPMeshLoopbackOpts returns a TCP mesh transport for n processes
// grouped onto `nodes` loopback nodes, every listener bound to 127.0.0.1
// on a kernel-assigned port. The full mesh — listeners, streams,
// handshakes, reader and writer loops — is established before the
// constructor returns, so Endpoint never dials. The zero TCPOpts is the
// reliable lockstep-exact mesh; see TCPOpts for the chaos knobs.
func NewTCPMeshLoopbackOpts(n, nodes int, pol Policy, opts TCPOpts) (*TCPMesh, error) {
	o := opts.withDefaults()
	core, err := newMesh(n, nodes, pol, meshOpts{
		deadline:  o.RoundTimeout,
		grace:     o.Grace,
		deadAfter: o.DeadAfter,
		counters:  o.Counters,
	})
	if err != nil {
		return nil, err
	}
	t := &TCPMesh{mesh: core}
	if nodes == 1 {
		return t, nil // single node: every delivery is in-memory
	}
	t.sl = &streamLink{t: core, opts: o, chaos: o.RoundTimeout > 0}
	core.link = t.sl
	if err := t.sl.open(); err != nil {
		t.Close()
		return nil, err
	}
	core.startWriters()
	return t, nil
}

// streamLink is the reliable-stream link: one listener per node, one
// duplex TCP stream per node pair (the lower-numbered node dials), one
// reader goroutine per stream end handing received frames to the core.
// Outside chaos mode a stream failure is fatal to the nodes it touches;
// in chaos mode (TCPOpts.RoundTimeout > 0) a broken stream's frames
// are loss — closed by the mailboxes' deadline — while the dialing side
// redials within the reconnect budget, and an exhausted budget is the
// peer node's death verdict.
type streamLink struct {
	t     *mesh
	opts  TCPOpts
	chaos bool
	ready atomic.Bool // setup done: accept handshakes from here on are reconnects
	nodes []*streamNode
	lns   []net.Listener
	addrs []string

	mu       sync.Mutex
	closed   bool
	conns    []net.Conn // every stream opened, for teardown
	setupErr error
}

// streamNode is one node's ends of its streams.
type streamNode struct {
	nd *meshNode

	mu           sync.Mutex
	conns        []net.Conn // by peer node id; writes owned by the node's writer loop
	reconnecting []bool     // by peer node id: stream down, replacement pending

	// Writer-loop scratch. vecs is re-sliced from a fixed backing array
	// every frame: net.Buffers.WriteTo consumes the slice from the front,
	// so appending to vecs[:0] would reallocate per frame.
	round   [binary.MaxVarintLen64]byte
	hdr     [2 * binary.MaxVarintLen64]byte
	vecsArr [2][]byte
	vecs    net.Buffers
}

// open binds the listeners, establishes and handshakes every stream, and
// starts the reader loops.
func (l *streamLink) open() error {
	t := l.t
	for _, nd := range t.nodes {
		l.nodes = append(l.nodes, &streamNode{nd: nd, conns: make([]net.Conn, t.m), reconnecting: make([]bool, t.m)})
	}
	for i := 0; i < t.m; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("transport: listen node %d: %w", i, err)
		}
		l.lns = append(l.lns, ln)
		l.addrs = append(l.addrs, ln.Addr().String())
	}
	var accepts sync.WaitGroup
	accepts.Add(t.m * (t.m - 1) / 2)
	for i := 0; i < t.m; i++ {
		go l.acceptLoop(l.nodes[i], l.lns[i], &accepts)
	}
	// Node i dials every higher-numbered node; the accept side learns
	// the dialer from the handshake.
	for i := 0; i < t.m; i++ {
		for j := i + 1; j < t.m; j++ {
			c, err := net.Dial("tcp", l.addrs[j])
			if err != nil {
				return fmt.Errorf("transport: node %d dial node %d: %w", i, j, err)
			}
			l.track(c)
			var hello [binary.MaxVarintLen64]byte
			if _, err := c.Write(hello[:binary.PutUvarint(hello[:], uint64(i))]); err != nil {
				return fmt.Errorf("transport: node %d handshake to node %d: %w", i, j, err)
			}
			l.nodes[i].conns[j] = c
			go l.readLoop(l.nodes[i], j, c)
		}
	}
	accepts.Wait()
	l.ready.Store(true)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.setupErr
}

// close implements link: it closes the listeners and every stream,
// which unblocks the accept and reader loops.
func (l *streamLink) close() {
	l.mu.Lock()
	l.closed = true
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, ln := range l.lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// track registers a stream for teardown; a stream arriving after
// teardown (an accept racing Close) is closed on the spot.
func (l *streamLink) track(c net.Conn) bool {
	l.mu.Lock()
	closed := l.closed
	if !closed {
		l.conns = append(l.conns, c)
	}
	l.mu.Unlock()
	if closed {
		c.Close()
	}
	return !closed
}

func (l *streamLink) failSetup(err error) {
	l.mu.Lock()
	if l.setupErr == nil {
		l.setupErr = err
	}
	l.mu.Unlock()
}

// send implements link: the frame goes out with a single writev. In
// chaos mode a stream that is down, or breaks under the write, turns the
// frame into loss instead of failing the node.
func (l *streamLink) send(from, to, r int, body []byte) error {
	sn := l.nodes[from]
	sn.mu.Lock()
	conn := sn.conns[to]
	sn.mu.Unlock()
	if conn == nil {
		return nil // stream down (chaos mode only): this round's frame is loss
	}
	round := binary.AppendUvarint(sn.round[:0], uint64(r))
	hdr := binary.AppendUvarint(sn.hdr[:0], uint64(len(round)+len(body)))
	sn.vecsArr[0], sn.vecsArr[1] = append(hdr, round...), body
	sn.vecs = net.Buffers(sn.vecsArr[:])
	if _, err := sn.vecs.WriteTo(conn); err != nil {
		if !l.chaos {
			return fmt.Errorf("transport: node %d write to node %d: %w", from, to, err)
		}
		l.streamBroken(sn, to, conn)
	}
	return nil
}

// flush implements link; every send has already hit its socket.
func (l *streamLink) flush(int) error { return nil }

// acceptLoop accepts the streams dialed by lower-numbered nodes and
// binds each to its peer via the handshake. After setup, in chaos mode,
// it also accepts replacement streams from reconnecting peers: the
// replacement closes whatever stream it supersedes and takes over the
// peer's slot.
func (l *streamLink) acceptLoop(sn *streamNode, ln net.Listener, accepts *sync.WaitGroup) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		if !l.track(c) {
			return
		}
		go func() {
			if !l.ready.Load() {
				defer accepts.Done()
			}
			c.SetReadDeadline(time.Now().Add(30 * time.Second))
			from64, err := binary.ReadUvarint(oneByteReader{c})
			c.SetReadDeadline(time.Time{})
			if err != nil {
				l.failSetup(fmt.Errorf("transport: node %d handshake read: %w", sn.nd.id, err))
				return
			}
			from := int(from64)
			var old net.Conn
			sn.mu.Lock()
			switch {
			case from64 >= uint64(sn.nd.id):
				err = fmt.Errorf("transport: node %d got handshake from unexpected node %d", sn.nd.id, from64)
			case sn.conns[from] != nil && !l.chaos:
				err = fmt.Errorf("transport: node %d got a second stream claiming node %d", sn.nd.id, from)
			default:
				old = sn.conns[from]
				sn.conns[from] = c
				sn.reconnecting[from] = false
			}
			sn.mu.Unlock()
			if err != nil {
				l.failSetup(err)
				return
			}
			if old != nil {
				old.Close()
			}
			go l.readLoop(sn, from, c)
		}()
	}
}

// streamBroken handles a read or write failure on the stream to peer in
// chaos mode: the first notice (reader and writer can both hit it) tears
// the stream out of the conn table and starts recovery — the original
// dialer side redials with backoff, the accept side waits out the
// dialer's budget for a replacement — and an exhausted budget turns into
// the terminal peer-dead verdict.
func (l *streamLink) streamBroken(sn *streamNode, peer int, c net.Conn) {
	if closed(l.t.done) {
		return
	}
	sn.mu.Lock()
	if sn.conns[peer] != c {
		// A replacement (or a second notice) already took over.
		sn.mu.Unlock()
		return
	}
	sn.conns[peer] = nil
	already := sn.reconnecting[peer]
	sn.reconnecting[peer] = true
	sn.mu.Unlock()
	c.Close()
	if already {
		return
	}
	switch {
	case l.opts.MaxReconnect <= 0:
		l.t.markNodeDead(peer)
	case sn.nd.id < peer:
		go l.redial(sn, peer)
	default:
		go l.awaitReplacement(sn, peer)
	}
}

// redial re-establishes the stream this node originally dialed, with
// jittered exponential backoff, up to the reconnect budget. Success
// installs the new stream for both loops; exhaustion is the terminal
// peer-dead verdict.
func (l *streamLink) redial(sn *streamNode, peer int) {
	o := l.opts
	for attempt := 1; attempt <= o.MaxReconnect; attempt++ {
		timer := time.NewTimer(o.backoff(sn.nd.id, peer, attempt))
		select {
		case <-l.t.done:
			timer.Stop()
			return
		case <-timer.C:
		}
		if o.Counters != nil {
			o.Counters.Retries.Add(1)
		}
		c, err := net.DialTimeout("tcp", l.addrs[peer], time.Second)
		if err != nil {
			continue
		}
		var hello [binary.MaxVarintLen64]byte
		if _, err := c.Write(hello[:binary.PutUvarint(hello[:], uint64(sn.nd.id))]); err != nil {
			c.Close()
			continue
		}
		if !l.track(c) {
			return
		}
		sn.mu.Lock()
		sn.conns[peer] = c
		sn.reconnecting[peer] = false
		sn.mu.Unlock()
		go l.readLoop(sn, peer, c)
		return
	}
	l.t.markNodeDead(peer)
}

// awaitReplacement is the accept side of stream recovery: it gives the
// dialer its full backoff budget (plus dial slack) to show up with a
// replacement stream, then issues the peer-dead verdict if none did.
func (l *streamLink) awaitReplacement(sn *streamNode, peer int) {
	o := l.opts
	budget := time.Duration(o.MaxReconnect)*(o.reconnectMax+o.reconnectMax/2+time.Second) + time.Second
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case <-l.t.done:
		return
	case <-timer.C:
	}
	sn.mu.Lock()
	gone := sn.reconnecting[peer]
	sn.mu.Unlock()
	if gone {
		l.t.markNodeDead(peer)
	}
}

// oneByteReader adapts a net.Conn for ReadUvarint without buffering —
// the handshake must not swallow the first frame's bytes.
type oneByteReader struct{ c net.Conn }

func (r oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r.c, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// readLoop is the inbound half of one stream: it reads the peer's
// length-prefixed round frames and hands each body to the core. A clean
// EOF is the normal end of a peer's run in reliable mode; in chaos mode
// any stream end while the transport is live routes to streamBroken for
// reconnect, and forward round gaps are tolerated (the frames a dead
// stream swallowed are loss, closed by the receive deadline).
func (l *streamLink) readLoop(sn *streamNode, peer int, c net.Conn) {
	t, nd := l.t, sn.nd
	snd := t.nodeLo(peer+1) - t.nodeLo(peer)
	frameLimit := uint64(binary.MaxVarintLen64 + frameBodyLimit(snd, nd.localN()))
	br := bufio.NewReaderSize(c, 1<<16)
	var frame []byte
	prevRound := 0
	fail := func(err error) {
		if l.chaos {
			// Chaos mode: a broken or corrupt stream is a recoverable
			// transport event, not a run failure.
			l.streamBroken(sn, peer, c)
			return
		}
		nd.failLocal(fmt.Errorf("transport: node %d read from node %d: %w", nd.id, peer, err))
	}
	for {
		flen, err := binary.ReadUvarint(br)
		if err != nil {
			if l.chaos || !errors.Is(err, io.EOF) {
				fail(err)
			}
			return
		}
		if flen > frameLimit {
			fail(fmt.Errorf("%d-byte frame exceeds limit %d", flen, frameLimit))
			return
		}
		if cap(frame) < int(flen) {
			frame = make([]byte, flen)
		}
		frame = frame[:flen]
		if _, err := io.ReadFull(br, frame); err != nil {
			fail(err)
			return
		}
		round64, k := binary.Uvarint(frame)
		badRound := k <= 0 || int(round64) != prevRound+1
		if badRound && l.chaos && k > 0 && int(round64) > prevRound {
			badRound = false // forward gap: the missing rounds were lost with the old stream
		}
		if badRound {
			fail(fmt.Errorf("round %d frame after round %d", round64, prevRound))
			return
		}
		prevRound = int(round64)
		if err := nd.deliver(peer, prevRound, frame[k:]); err != nil {
			fail(err)
			return
		}
	}
}
