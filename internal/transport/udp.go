package transport

import (
	"fmt"
	"net"
	"net/netip"
	"time"
)

// UDPMesh is the mesh over best-effort datagrams: one unconnected UDP
// socket per node, so a round costs one sendmmsg batch instead of
// nodes-1 stream writes. Frame bodies larger than a datagram budget are
// fragmented across numbered datagrams (udp_frame.go documents the
// layout); receivers reassemble by fragment index into a per-peer ring
// of round slots. There is no retransmission and no acknowledgment
// anywhere: the k-set agreement algorithm this repo grows tolerates
// arbitrary message loss as long as a stable skeleton survives, so a
// lost datagram is semantically just another dropped link. Rounds close
// by the mailboxes' deadline+grace rule — absence is the drop signal —
// while Policy-injected drops still travel as explicit bitmap
// tombstones, so simulated faults stay fast and compose with real loss
// (a tombstone-bearing datagram can itself be lost).
//
// The zero-allocation discipline of the core carries through the link:
// reused frame/fragment scratch, reused reassembly slots, and batch
// send/receive state allocated once — the steady-state round trip does
// not allocate.
type UDPMesh struct {
	*mesh
	dl *datagramLink // nil on a single-node mesh, which never opens a socket
}

// UDPOpts tunes a UDP mesh. What each zero value means is in the package
// comment's option table.
type UDPOpts struct {
	// RoundTimeout is the receiver's per-round closure deadline: how
	// long a Gather waits for senders the bitmap has not accounted for
	// before starting to suspect loss.
	RoundTimeout time.Duration

	// Grace extends a timed-out round while datagrams are still
	// trickling in: after the deadline, the round stays open as long as
	// every Grace window brings at least one new frame, and closes on
	// the first silent window.
	Grace time.Duration

	// SocketBuffer sizes SO_RCVBUF/SO_SNDBUF in bytes. The lossy soak
	// shrinks it to put real kernel-buffer pressure on the mesh.
	SocketBuffer int

	// Meter, when non-nil, records the realized heard-set of every
	// gather — the input of the loss-replay differential mode.
	Meter *HeardMeter

	// DropDatagram, when non-nil, simulates wire loss: a datagram
	// (fragment frag of node from's round-r frame to node to) for which
	// it returns true is silently not sent. Unlike a Policy drop it
	// leaves no tombstone — the receiver must notice the absence — so
	// tests can exercise the deadline closure path deterministically.
	DropDatagram func(r, from, to, frag int) bool

	// DeadAfter enables the stall detector: a node whose rounds a
	// deadline sealed without a peer node this many times in a row
	// declares the peer's processes dead — its whole node, since an OS
	// process dying takes every co-located participant with it — in its
	// own mailbox alone, and their absences stop costing it the deadline.
	DeadAfter int

	// Counters, when non-nil, receives stall and death events.
	Counters *StallCounters

	// maxDatagram caps the bytes of one UDP packet, header included
	// (0 = defaultUDPDatagram). Both sides derive the fragment chunk size
	// from it. Only the fragmentation tests shrink it, down to
	// minUDPDatagram.
	maxDatagram int
}

func (o *UDPOpts) withDefaults() UDPOpts {
	opts := *o
	if opts.maxDatagram == 0 {
		opts.maxDatagram = defaultUDPDatagram
	}
	if opts.RoundTimeout == 0 {
		opts.RoundTimeout = 2 * time.Millisecond
	}
	if opts.Grace == 0 {
		opts.Grace = 300 * time.Microsecond
	}
	if opts.SocketBuffer == 0 {
		opts.SocketBuffer = 1 << 20
	}
	return opts
}

// defaultUDPDatagram fits an Ethernet MTU; minUDPDatagram is the floor
// that keeps fragment bytes after a worst-case header.
const (
	defaultUDPDatagram = 1400
	minUDPDatagram     = udpHeaderMax + 64
)

// NewUDPMeshLoopback returns a UDP mesh transport for n processes
// grouped onto `nodes` loopback nodes. All sockets are bound and all
// loops running before the constructor returns.
func NewUDPMeshLoopback(n, nodes int, pol Policy, opts UDPOpts) (*UDPMesh, error) {
	opts = opts.withDefaults()
	core, err := newMesh(n, nodes, pol, meshOpts{
		deadline:  opts.RoundTimeout,
		grace:     opts.Grace,
		deadAfter: opts.DeadAfter,
		counters:  opts.Counters,
		meter:     opts.Meter,
	})
	if err != nil {
		return nil, err
	}
	t := &UDPMesh{mesh: core}
	if nodes == 1 {
		return t, nil // single node: every delivery is in-memory
	}
	t.dl = &datagramLink{t: core, opts: opts, chunk: opts.maxDatagram - udpHeaderMax}
	core.link = t.dl
	if err := t.dl.open(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// datagramLink is the best-effort link: one socket per node, frame
// bodies fragmented into datagrams and batched per round on the way out
// (one sendmmsg on Linux), reassembled per peer on the way in. Nothing
// it does can fail a run short of a dead socket — a datagram the kernel
// refuses, a malformed or stale packet, a frame that never completes
// are all loss.
type datagramLink struct {
	t     *mesh
	opts  UDPOpts
	chunk int // fragment body bytes (all fragments but the last)
	nodes []*udpNode
	addrs []netip.AddrPort
}

// udpNode is one node's socket and its batch and reassembly state.
type udpNode struct {
	l    *datagramLink
	nd   *meshNode
	conn *net.UDPConn

	sender    udpSender   // owned by the node's ship claim
	rcv       udpReceiver // reader-loop owned
	reasm     []*udpReasm // by peer node id, reader-loop owned
	badDgrams int         // datagrams dropped by validation, reader-loop owned
}

// open binds every node's socket, then prepares the batch send/receive
// state (platform-specific; see udp_batch_linux.go and
// udp_batch_fallback.go) and the reassembly rings, and starts the reader
// loops.
func (l *datagramLink) open() error {
	t := l.t
	for i, nd := range t.nodes {
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return fmt.Errorf("transport: bind node %d: %w", i, err)
		}
		conn.SetReadBuffer(l.opts.SocketBuffer)
		conn.SetWriteBuffer(l.opts.SocketBuffer)
		l.nodes = append(l.nodes, &udpNode{l: l, nd: nd, conn: conn})
		l.addrs = append(l.addrs, conn.LocalAddr().(*net.UDPAddr).AddrPort())
	}
	for i, un := range l.nodes {
		un.reasm = make([]*udpReasm, t.m)
		for j := 0; j < t.m; j++ {
			if j != i {
				un.reasm[j] = newUDPReasm(j, t.nodeLo(j+1)-t.nodeLo(j), un.nd.localN(), l.chunk)
			}
		}
		err := un.sender.init(un.conn, l.addrs)
		if err == nil {
			err = un.rcv.init(un.conn, l.opts.maxDatagram)
		}
		if err != nil {
			return fmt.Errorf("transport: node %d io setup: %w", i, err)
		}
		go un.readLoop()
	}
	return nil
}

// close implements link: closing a socket unblocks its reader and any
// batch send.
func (l *datagramLink) close() {
	for _, un := range l.nodes {
		un.conn.Close()
	}
}

// send implements link: it fragments the frame body into datagrams and
// queues them on the sending node's batch. Simulated wire loss
// (DropDatagram) is applied per fragment.
func (l *datagramLink) send(from, to, r int, body []byte) error {
	fragCount := (len(body) + l.chunk - 1) / l.chunk
	if fragCount == 0 {
		fragCount = 1
	}
	for fi := 0; fi < fragCount; fi++ {
		if l.opts.DropDatagram != nil && l.opts.DropDatagram(r, from, to, fi) {
			continue
		}
		lo := fi * l.chunk
		hi := lo + l.chunk
		if hi > len(body) {
			hi = len(body)
		}
		l.nodes[from].sender.queue(to, udpHeader{from: from, round: r, fragIdx: fi, fragCount: fragCount}, body[lo:hi])
	}
	return nil
}

// flush implements link: the node's whole round ships as one batch. Only
// a dead socket surfaces here (per-datagram errors are treated as loss).
func (l *datagramLink) flush(from int) error {
	if err := l.nodes[from].sender.flush(); err != nil {
		return fmt.Errorf("transport: node %d send: %w", from, err)
	}
	return nil
}

// readLoop drains the node's socket until Close, reassembling and
// delivering every valid datagram. Malformed or stale datagrams are
// dropped silently (counted in badDgrams) — on a best-effort transport
// a bad packet is indistinguishable from a lost one.
func (un *udpNode) readLoop() {
	for {
		if err := un.rcv.recv(un); err != nil {
			return // socket closed by Close
		}
	}
}

// handleDatagram validates, reassembles, and (on frame completion)
// hands one received packet's frame to the core.
func (un *udpNode) handleDatagram(pkt []byte, from netip.AddrPort) {
	hdr, frag, err := parseUDPDatagram(pkt)
	if err != nil || hdr.from >= un.l.t.m || hdr.from == un.nd.id || un.l.addrs[hdr.from] != from {
		un.badDgrams++
		return
	}
	body, ok := un.reasm[hdr.from].place(hdr, frag, un.nd.box.newest())
	if !ok {
		if body == nil {
			un.badDgrams++
		}
		return
	}
	if body == nil {
		return // fragment accepted; frame not complete yet
	}
	if un.nd.deliver(hdr.from, hdr.round, body) != nil {
		un.badDgrams++ // the deposits already made stand; the rest close as loss
	}
}

// udpReasm reassembles one peer's fragmented round frames into a ring
// of `window` slots, mirroring the mailbox ring so a frame for any
// depositable round has a slot. All state is owned by the reader
// goroutine; buffers are reused across rounds, so steady state does not
// allocate.
type udpReasm struct {
	peer     int
	chunk    int
	limit    int // reassembled body cap, from transport dims — never from headers
	maxFrags int
	slots    [window]reasmSlot
}

type reasmSlot struct {
	round     int
	fragCount int
	got       int
	lastLen   int
	seen      []uint64
	body      []byte
	done      bool
}

func newUDPReasm(peer, snd, rcv, chunk int) *udpReasm {
	limit := frameBodyLimit(snd, rcv)
	return &udpReasm{
		peer:     peer,
		chunk:    chunk,
		limit:    limit,
		maxFrags: (limit + chunk - 1) / chunk,
	}
}

// place copies one fragment into its round slot. It returns (body,
// true) exactly once per round, when the last fragment lands. A nil
// body with ok == false means the datagram was rejected as invalid (as
// opposed to merely not completing a frame yet). A round past newest —
// the latest the node's mailbox could place — is invalid: were it to
// claim its slot, one forged header would make every later round of the
// same residue stale.
func (ra *udpReasm) place(hdr udpHeader, frag []byte, newest int) ([]byte, bool) {
	if hdr.fragCount > ra.maxFrags || hdr.round > newest {
		return nil, false
	}
	final := hdr.fragIdx == hdr.fragCount-1
	if final {
		if len(frag) == 0 || len(frag) > ra.chunk {
			return nil, false
		}
	} else if len(frag) != ra.chunk {
		return nil, false
	}
	s := &ra.slots[hdr.round%window]
	switch {
	case s.round == hdr.round:
		if s.done || s.fragCount != hdr.fragCount {
			return []byte{}, false // late duplicate or inconsistent header
		}
	case s.round > hdr.round:
		return []byte{}, false // stale round: its slot has moved on
	default:
		// New round claims the slot; whatever partial frame occupied it
		// is lost — which on this transport is always sound.
		s.round = hdr.round
		s.fragCount = hdr.fragCount
		s.got = 0
		s.done = false
		words := (hdr.fragCount + 63) / 64
		if cap(s.seen) < words {
			s.seen = make([]uint64, words)
		}
		s.seen = s.seen[:words]
		for i := range s.seen {
			s.seen[i] = 0
		}
		need := hdr.fragCount * ra.chunk
		if cap(s.body) < need {
			s.body = make([]byte, need)
		}
		s.body = s.body[:need]
	}
	if s.seen[hdr.fragIdx>>6]&(1<<(hdr.fragIdx&63)) != 0 {
		return []byte{}, false // duplicate fragment
	}
	s.seen[hdr.fragIdx>>6] |= 1 << (hdr.fragIdx & 63)
	copy(s.body[hdr.fragIdx*ra.chunk:], frag)
	if final {
		s.lastLen = len(frag)
	}
	s.got++
	if s.got < s.fragCount {
		return nil, true
	}
	s.done = true
	return s.body[:(s.fragCount-1)*ra.chunk+s.lastLen], true
}
