package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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
// enables chaos mode, which keeps a dead peer inside the round model:
// receive mailboxes switch to the deadline+grace closure the UDP mesh
// uses (a dead peer costs a deadline, not the run), and a node forgets
// a peer node for itself alone — after DeadAfter consecutive silent
// rounds, or when their stream breaks: a broken stream is one lost
// link, each end declaring the other's processes dead. What each zero
// value means is in the package comment's option table.
type TCPOpts struct {
	// RoundTimeout is the receiver's per-round closure deadline: a Gather
	// waits at most RoundTimeout (plus grace extensions of RoundTimeout/8,
	// at least 100µs, while frames are still trickling in) before
	// recording missing senders as losses, exactly the UDP mesh's rule.
	RoundTimeout time.Duration
	// DeadAfter is the stall detector's verdict threshold, as
	// UDPOpts.DeadAfter.
	DeadAfter int
	// Counters, when non-nil, receives stall and death events.
	Counters *StallCounters
}

// NewTCPMeshLoopbackOpts returns a TCP mesh transport for n processes
// grouped onto `nodes` loopback nodes, every listener bound to 127.0.0.1
// on a kernel-assigned port. The full mesh — streams, handshakes, reader
// loops — is established before the constructor returns, and the
// listeners are closed again, so Endpoint never dials and nothing is
// accepted later. The zero TCPOpts is the reliable lockstep-exact mesh;
// see TCPOpts for the chaos knobs.
func NewTCPMeshLoopbackOpts(n, nodes int, pol Policy, opts TCPOpts) (*TCPMesh, error) {
	var grace time.Duration
	if opts.RoundTimeout > 0 {
		grace = max(opts.RoundTimeout/8, 100*time.Microsecond)
	}
	core, err := newMesh(n, nodes, pol, meshOpts{
		deadline:  opts.RoundTimeout,
		grace:     grace,
		deadAfter: opts.DeadAfter,
		counters:  opts.Counters,
	})
	if err != nil {
		return nil, err
	}
	t := &TCPMesh{mesh: core}
	if nodes == 1 {
		return t, nil // single node: every delivery is in-memory
	}
	t.sl = &streamLink{t: core, chaos: opts.RoundTimeout > 0}
	core.link = t.sl
	if err := t.sl.open(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// streamLink is the reliable-stream link: one duplex TCP stream per node
// pair (the lower-numbered node dials), made once at set-up, and one
// reader goroutine per stream end handing received frames to the core.
// Outside chaos mode a stream failure is fatal to the nodes it touches;
// in chaos mode (TCPOpts.RoundTimeout > 0) it loses that one link for the
// rest of the run (lose).
type streamLink struct {
	t     *mesh
	chaos bool
	nodes []*streamNode
}

// streamNode is one node's ends of its streams.
type streamNode struct {
	nd *meshNode

	mu    sync.Mutex
	conns []net.Conn // by peer node id, nil once lost; writes owned by the node's ship claim

	// Ship scratch. vecs is re-sliced from a fixed backing array
	// every frame: net.Buffers.WriteTo consumes the slice from the front,
	// so appending to vecs[:0] would reallocate per frame.
	round   [binary.MaxVarintLen64]byte
	hdr     [2 * binary.MaxVarintLen64]byte
	vecsArr [2][]byte
	vecs    net.Buffers
}

// open makes every stream and starts the reader loops. Node i dials every
// higher-numbered node and sends its id; the dials complete into the
// listeners' accept queues (a node has m-1 peers; the kernel queues
// somaxconn), so each node then accepts exactly the id streams its
// lower-numbered peers dialed, learning each dialer from its handshake,
// and the listeners close when set-up ends. A stream opened before a
// failure is closed by the mesh's Close.
func (l *streamLink) open() error {
	t := l.t
	lns := make([]net.Listener, 0, t.m)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i, nd := range t.nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("transport: listen node %d: %w", i, err)
		}
		lns = append(lns, ln)
		l.nodes = append(l.nodes, &streamNode{nd: nd, conns: make([]net.Conn, t.m)})
	}
	for i, sn := range l.nodes {
		for j := i + 1; j < t.m; j++ {
			c, err := net.Dial("tcp", lns[j].Addr().String())
			if err != nil {
				return fmt.Errorf("transport: node %d dial node %d: %w", i, j, err)
			}
			sn.conns[j] = c
			var hello [binary.MaxVarintLen64]byte
			if _, err := c.Write(hello[:binary.PutUvarint(hello[:], uint64(i))]); err != nil {
				return fmt.Errorf("transport: node %d handshake to node %d: %w", i, j, err)
			}
		}
	}
	for i, sn := range l.nodes {
		if err := sn.accept(lns[i]); err != nil {
			return err
		}
	}
	for _, sn := range l.nodes {
		for j, c := range sn.conns {
			if c != nil {
				go l.readLoop(sn, j, c)
			}
		}
	}
	return nil
}

// accept takes the streams node sn's lower-numbered peers dialed and
// binds each to its peer via the handshake.
func (sn *streamNode) accept(ln net.Listener) error {
	id := sn.nd.id
	for k := 0; k < id; k++ {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: node %d accept: %w", id, err)
		}
		c.SetReadDeadline(time.Now().Add(30 * time.Second))
		from, err := binary.ReadUvarint(oneByteReader{c})
		c.SetReadDeadline(time.Time{})
		switch {
		case err != nil:
			err = fmt.Errorf("transport: node %d handshake read: %w", id, err)
		case from >= uint64(id):
			err = fmt.Errorf("transport: node %d got handshake from unexpected node %d", id, from)
		case sn.conns[from] != nil:
			err = fmt.Errorf("transport: node %d got a second stream claiming node %d", id, from)
		}
		if err != nil {
			c.Close()
			return err
		}
		sn.conns[from] = c
	}
	return nil
}

// close implements link: it closes every stream still open, which
// unblocks the reader loops.
func (l *streamLink) close() {
	for _, sn := range l.nodes {
		sn.mu.Lock()
		for _, c := range sn.conns {
			if c != nil {
				c.Close()
			}
		}
		sn.mu.Unlock()
	}
}

// send implements link: the frame goes out with a single writev. In
// chaos mode a lost link, or one that breaks under the write, swallows
// the frame instead of failing the node.
func (l *streamLink) send(from, to, r int, body []byte) error {
	sn := l.nodes[from]
	sn.mu.Lock()
	conn := sn.conns[to]
	sn.mu.Unlock()
	if conn == nil {
		return nil // link lost (chaos mode only): the peer no longer waits for it
	}
	round := binary.AppendUvarint(sn.round[:0], uint64(r))
	hdr := binary.AppendUvarint(sn.hdr[:0], uint64(len(round)+len(body)))
	sn.vecsArr[0], sn.vecsArr[1] = append(hdr, round...), body
	sn.vecs = net.Buffers(sn.vecsArr[:])
	if _, err := sn.vecs.WriteTo(conn); err != nil {
		if !l.chaos {
			return fmt.Errorf("transport: node %d write to node %d: %w", from, to, err)
		}
		l.lose(sn, to, conn)
	}
	return nil
}

// flush implements link; every send has already hit its socket.
func (l *streamLink) flush(int) error { return nil }

// lose ends the link between sn's node and peer for the rest of the run
// (chaos mode). The first notice — the reader and the ship can both hit
// the failure — closes the stream and declares peer's processes dead in this
// node's mailbox alone, so its rounds close by count without them. The
// peer's end rules the same way when it sees the failure; no other node
// is touched, and neither end's own processes are.
func (l *streamLink) lose(sn *streamNode, peer int, c net.Conn) {
	sn.mu.Lock()
	first := sn.conns[peer] == c
	if first {
		sn.conns[peer] = nil
	}
	sn.mu.Unlock()
	if !first {
		return
	}
	c.Close()
	sn.nd.forget(peer)
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
// length-prefixed round frames, in round order, and hands each body to
// the core. A clean EOF is the normal end of a peer's run in reliable
// mode; in chaos mode any stream end while the transport is live loses
// the link.
func (l *streamLink) readLoop(sn *streamNode, peer int, c net.Conn) {
	t, nd := l.t, sn.nd
	snd := t.nodeLo(peer+1) - t.nodeLo(peer)
	frameLimit := uint64(binary.MaxVarintLen64 + frameBodyLimit(snd, nd.localN()))
	br := bufio.NewReaderSize(c, 1<<16)
	var frame []byte
	prevRound := 0
	fail := func(err error) {
		if l.chaos {
			l.lose(sn, peer, c)
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
		if k <= 0 || round64 != uint64(prevRound+1) {
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
