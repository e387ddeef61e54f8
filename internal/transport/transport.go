// Package transport provides the wire layer of the distributed runtime
// (internal/runtime): pluggable message transports that carry one
// broadcast payload per process per round and reassemble, on the receive
// side, the per-round message vector the round model prescribes.
//
// Closing a round with a heard-set is one job, so it is implemented
// once: the unexported mesh core (mesh.go) partitions the processes onto
// nodes, gives each node one mailbox (mailbox.go) — a ring of rounds, one
// slot per sender, written once per sender and read by every hosted
// receiver through its bit of the sender's delivery row — and
// coalesces everything a node sends a peer node in a round into one
// frame body (frame.go: a drop bitmap over the sender x receiver link
// matrix, then each delivering sender's payload once). The call that
// completes a node's round — its last live hosted sender's Broadcast,
// or the death verdict on the last one unposted — ships it, so a round
// leaves its node inside its own round step and the only goroutines a
// mesh runs are its link's readers. A link — the package's one internal
// seam — only moves finished frame bodies between nodes. The three
// exported transports are the core under three links:
//
//   - InProc — the single-node mesh. With one mailbox there is nothing
//     to move and no link: zero goroutines, zero OS involvement; the
//     transport used by the agreement service (internal/service) for its
//     sessions.
//   - TCPMesh — the stream link (tcp.go): one duplex TCP stream per node
//     pair (loopback or a LAN), each round's frame length-prefixed and
//     written with one writev, one reader goroutine per stream end. In
//     chaos mode (TCPOpts.RoundTimeout > 0) a broken stream is one lost
//     link: each end stops hearing the other, nothing else changes.
//   - UDPMesh — the datagram link (udp.go): frame bodies packed into
//     MTU-sized datagrams (fragmenting large frames across numbered
//     datagrams), batched through sendmmsg/recvmmsg on Linux. A datagram
//     the network loses simply never arrives, and the receiver records
//     the absence as a nil delivery — exactly the heard-set semantics
//     the paper's round model assigns to a lossy link. The algorithm
//     tolerates arbitrary loss given a stable skeleton, so nothing is
//     retransmitted.
//
// How a round closes is the mailbox's policy, derived from its deadline,
// and it closes once, for the node: with no deadline (InProc, TCPMesh)
// by count — every sender deposited or was declared dead — and an
// unplaceable frame is a protocol violation; with one (UDPMesh, TCPMesh
// in chaos mode) by count or by deadline plus grace, senders still
// missing become nil deliveries, and late or duplicate frames are
// ignored. A payload is copied once into a buffer its ring slot owns
// and reuses, so the steady-state round allocates nothing and a
// receiver wakes exactly once per round.
//
// All are driven by a Policy: once per sender and round, at the sending
// endpoint, it answers with the row of processes that receive the
// message (a dropped payload never crosses the wire; a tombstone — a
// cleared row or bitmap bit — still closes the round). Because every
// adversary schedule from
// internal/adversary is a Policy (see Schedule), any simulated run can be
// replayed over a real transport — the differential harness in
// internal/runtime proves the replay is decision-for-decision identical
// to sim.Execute.
//
// # Options
//
// UDPOpts and TCPOpts describe a socket mesh; InProc takes none. Which
// link reads a field, and what its zero value means there:
//
//	field         datagram link (UDPOpts)      stream link (TCPOpts)
//	RoundTimeout  0 = 2ms                      0 = none: rounds close by count
//	Grace         0 = 300µs                    - (RoundTimeout/8, at least 100µs)
//	DeadAfter     0 = never forget a peer      0 = never forget a peer
//	Counters      nil = events not counted     nil = events not counted
//	SocketBuffer  0 = 1MiB                     -
//	Meter         nil = heard-sets not kept    - (Metered attaches one to any mesh)
//	DropDatagram  nil = no simulated loss      -
//
// DeadAfter d > 0 is each node's stall detector: a node whose rounds a
// deadline sealed without peer node j d times in a row forgets j — it
// declares j's processes dead in its own mailbox and nowhere else. On
// the stream link Grace and DeadAfter only act in chaos mode
// (RoundTimeout > 0): a count-closed mesh has no deadline to extend, no
// deadline-closed round to count, and fails on a broken stream. With
// DeadAfter 0 silence costs a deadline every round but is never terminal,
// the right setting when loss is expected to be transient. Datagrams are
// 1400 bytes.
//
// # Transport contract
//
// Every process calls Broadcast exactly once per round r = 1, 2, ...,
// then Gather(r) exactly once; rounds are communication-closed. The
// contract every implementation satisfies:
//
//  1. Per-link FIFO: frames from p arrive at q in send order.
//  2. Round closure: Gather(r) returns only after a round-r frame from
//     every process (possibly a drop tombstone) has arrived. On the
//     best-effort UDP mesh a frame may be lost outright, so closure is
//     additionally bounded by a per-round deadline plus grace windows:
//     senders still missing when the deadline expires are recorded as
//     nil deliveries, the same observable outcome as a Policy drop.
//  3. Bounded lookahead: a sender is never more than a constant number of
//     rounds ahead of any receiver (the runtime's pipelined control
//     barrier bounds it at one round past the lowest un-gathered round),
//     so per-node buffering is O(1) rounds — a fixed `window`-slot ring.
//  4. Self-delivery: a process always receives its own round-r payload
//     (the model requires all self-loops), whatever the Policy's row.
package transport

import (
	"errors"
)

// ErrClosed is returned by endpoint operations after the transport (or
// the endpoint) has been closed.
var ErrClosed = errors.New("transport: closed")

// maxPayload bounds a single round payload. Algorithm 1 messages are
// O(n²) varints (see internal/wire); even the largest universe internal/wire decodes (4096) stays far
// below this, so anything larger is a protocol violation, not traffic.
const maxPayload = 1 << 24

// Endpoint is one process's port onto the network. An endpoint is owned
// by a single goroutine: Broadcast and Gather must not be called
// concurrently (Close may be called from anywhere).
type Endpoint interface {
	// Self returns the process id this endpoint belongs to.
	Self() int
	// N returns the number of processes on the transport.
	N() int
	// Broadcast sends this process's round-r payload to every process,
	// itself included. The payload is copied (or written to the wire)
	// before Broadcast returns; the caller may reuse the buffer.
	// Drops are applied here: the configured Policy answers once with
	// the round's receivers.
	Broadcast(r int, payload []byte) error
	// Gather blocks until every process's round-r frame has arrived and
	// returns the received vector: recv[q] is q's payload, or nil if the
	// policy dropped the link q -> self in round r. recv aliases into
	// (grown as needed); the payloads are valid until the next Gather
	// call on this endpoint.
	Gather(r int, into [][]byte) (recv [][]byte, err error)
	// Close releases the endpoint; pending and future calls fail with
	// ErrClosed.
	Close() error
}

// Transport hands out the n endpoints of one run. Transports are
// single-run: after Close (or a completed run) build a fresh one.
type Transport interface {
	// N returns the number of processes.
	N() int
	// Endpoint returns process self's endpoint. Each id must be claimed
	// at most once, from any goroutine.
	Endpoint(self int) (Endpoint, error)
	// Close tears the transport down and unblocks every endpoint.
	Close() error
}

// DeadMarker is implemented by transports that support the chaos
// layer's death verdicts: MarkDead(p, fromRound) declares that process
// p sends nothing from round fromRound onward (fromRound <= 1 means
// from the beginning). Every receiver's missing deliveries from p are
// converted to permanent nil tombstones — pending rounds close by
// count, deadline-closed rounds stop waiting out the silence — and any
// frame from p still in flight is discarded. The verdict is terminal:
// there is no MarkAlive.
//
// Its caller is the runtime's crash injector: a planned crash announces
// itself, round-exactly, the way a real crashed OS process is announced
// by its supervisor, and the verdict reaches every mailbox. A mesh node
// rules on silence itself, and only for itself: its stall detector
// (DeadAfter) and a TCP stream lost in chaos mode make it forget the
// peer node in its own mailbox; no other node's view changes.
type DeadMarker interface {
	MarkDead(p, fromRound int)
}
