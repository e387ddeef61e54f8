package transport

import "sync/atomic"

// StallCounters aggregates the chaos layer's transport-health events
// across a transport's lifetime (and, in the agreement service, across
// all sessions sharing one counter set — Stalls backs the
// ksetd_peer_stalls_total metric).
type StallCounters struct {
	// Stalls counts the senders deadline closures gave up on, one per
	// (receiving process, missing sender, round): a receiver that closed
	// a round without a sender's frame adds one, whether or not a stall
	// detector is watching.
	Stalls atomic.Int64
	// Dead counts the processes nodes stopped waiting for: when a node
	// forgets a peer node — its stall verdict or a lost TCP link — the
	// peer's processes count once for that node, whichever comes first.
	Dead atomic.Int64
}

// peerWatch is what a mesh node keeps on one peer node: the stall
// detector's consecutive-miss streak, and whether the node has
// forgotten the peer.
type peerWatch struct {
	lastMiss  int // round of the most recent miss
	streak    int // consecutive misses ending at lastMiss
	forgotten bool
}

// sealedLocked is the node's stall detector, one per node: a peer
// node's frame arrives whole or not at all, and every hosted receiver
// of a sealed round sees the same arrivals. The receiver that seals
// round r by deadline feeds it the round's sender states under box.mu;
// a peer node with a sender the seal gave up on missed the round, and
// its DeadAfter-th consecutive miss forgets it. The streak rule tells a
// stall from a loss burst only by length. Injected drops and dead
// senders never count (their rounds close by count), a node never rules
// on its own processes, and a forgotten peer is never missed again: its
// slots are pre-filled.
func (nd *meshNode) sealedLocked(r int, state []uint8) {
	deadAfter := nd.t.opts.deadAfter
	if deadAfter <= 0 {
		return
	}
	for q, st := range state {
		j := nd.t.nodeOf(q)
		w := &nd.peers[j]
		if st != slotLost || j == nd.id || w.lastMiss == r {
			continue
		}
		if w.lastMiss == r-1 {
			w.streak++
		} else {
			w.streak = 1
		}
		w.lastMiss = r
		if w.streak == deadAfter {
			nd.forgetLocked(j)
		}
	}
}
