package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/graph"
)

// window is the number of rounds a node keeps in flight. The round loop
// needs at most three consecutive rounds live at once — round r-1
// (gathered, payloads still valid until the next Gather call), round r
// (filling), and round r+1 (pipelined sends racing ahead of the round
// barrier; bounded-lookahead caps senders at one round past the lowest
// un-gathered round). Four slots leave one round of slack so a violated
// contract is detected as an error instead of corrupting a live slot.
const window = 4

// What a round slot knows about one sender.
const (
	slotEmpty      uint8 = iota // nothing yet: the round is waiting for it
	slotArrived                 // payload and delivery row are valid
	slotDead                    // pre-filled by a death verdict: nil to every receiver, not missed
	slotLost                    // a deadline closure gave up on it: nil to every receiver, and missed
	slotLostPosted              // lost, then posted by a hosted sender: heard by itself alone on its node, shipped with its row
)

// roundSlot is one round of the ring: one entry per sender. The payload
// is copied once into a buffer the slot owns; the sender's row says which
// processes the policy (or the frame bitmap) delivered it to.
type roundSlot struct {
	tag   int             // the round this slot serves; 0 = never used
	count int             // senders no longer waited for; n = the round is closed
	state []uint8         // per sender
	buf   [][]byte        // per sender, non-nil once arrived
	row   []graph.NodeSet // per sender, over all n processes: who it is delivered to
}

// cursor is all a hosted receiver keeps: where it is in the ring and
// what it parks on.
type cursor struct {
	entered  int           // round of its latest Gather call; payloads of earlier rounds are no longer read
	awaiting int           // round a parked await is blocked on (0 = none)
	ready    chan struct{} // pulsed when the awaited round closes or the mailbox fails or closes
	timer    *time.Timer   // round-closure timer; nil without a deadline
	missed   []int         // senders the last closure gave up on (scratch)
}

// mailbox is a mesh node's round buffer: a ring of `window` rounds, each
// one slot per sender, read by every receiver the node hosts through its
// own bit of each sender's delivery row. A sender (or a link's reader
// loop, for a whole frame) writes under one lock without ever blocking;
// a receiving process parks in await until the node's round closes, and
// on a multi-node mesh the call that completes the hosted senders' round
// claims it and ships their slots out of the same ring (claimLocked). A
// round closes once, for the node. How — and what a deposit the
// ring cannot take means — is one policy, derived from the deadline:
//
//	deadline  a round closes               unplaceable deposit
//	0         by count: all n senders      protocol violation: fails the
//	          deposited or declared dead   mailbox (the link is reliable, so
//	                                       the frame cannot be explained)
//	> 0       by count, or sealed by the   late or replayed datagram:
//	          first hosted receiver whose  ignored
//	          deadline, then a grace
//	          window, pass with no arrival
//
// A deposit is placeable iff 1 <= r <= asked+2 (bounded lookahead: no
// sender is more than one round past the lowest un-gathered round), its
// ring slot has not moved past r, and the sender's entry is empty.
//
// Under a deadline, absence is loss: the seal marks the senders still
// missing lost, every hosted receiver reads them as nil — to the process
// above, real loss is indistinguishable from an injected drop — and the
// node's stall detector is fed the sealed round once. Injected drops are
// cleared row bits and dead senders are pre-filled, so a round whose
// losses are all injected closes by count; the deadline only pays for
// frames the network genuinely lost.
//
// The ring recycles by round tag: whoever first touches round r turns
// slot r%window over from an earlier round, never one whose ship is
// pending. The slot's buffers are reused only if every hosted receiver
// has called Gather past that round; otherwise they are left to the GC,
// so a receiver that stopped gathering neither wedges the others nor
// sees a view overwritten.
//
// Wake-ups use 1-buffered pulse channels so a deadline await can select
// between closure and its round timer without polling. Only closure
// pulses: a partial arrival changes nothing a parked await could act on
// (the deadline+grace rule samples progress at timer fires). A
// count-only await never touches a timer — arming and stopping one every
// round costs 30-50% of an in-process round.
type mailbox struct {
	mu sync.Mutex
	n  int // senders: every process of the mesh

	lo, hosted int // hosted receivers [lo, lo+hosted)

	deadline, grace time.Duration // closure policy; deadline 0 = by count only

	asked atomic.Int64 // highest round any hosted receiver has called Gather for; written under mu
	ring  [window]roundSlot
	recv  []cursor
	dead  []int         // per sender: first dead round (0 = alive), lazily allocated
	row   graph.NodeSet // delivery-row scratch, for whoever holds mu

	node *meshNode // whose stall detector a deadline seal feeds; nil = none

	// Shipping: the hosted senders' rounds leave the node in order, one
	// claim at a time (claimLocked).
	next    int  // the next round to ship; 0 = none ever (single node, or every hosted sender dead)
	claimed bool // a call is shipping round next

	err    error
	closed bool
}

func newMailbox(n, lo, hosted int, deadline, grace time.Duration) *mailbox {
	b := &mailbox{
		n: n, lo: lo, hosted: hosted,
		deadline: deadline, grace: grace,
		recv: make([]cursor, hosted),
		row:  graph.NewNodeSet(n),
	}
	for i := range b.ring {
		s := roundSlot{state: make([]uint8, n), buf: make([][]byte, n), row: make([]graph.NodeSet, n)}
		for q := range s.row {
			s.row[q] = graph.NewNodeSet(n)
		}
		b.ring[i] = s
	}
	for i := range b.recv {
		c := &b.recv[i]
		c.ready = make(chan struct{}, 1)
		if deadline > 0 {
			c.timer = time.NewTimer(time.Hour)
			c.timer.Stop()
		}
	}
	return b
}

// pulse nudges a parked goroutine; a pulse already pending is enough.
func pulse(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// wakeLocked pulses the receivers parked on round r; r = 0 pulses every
// parked receiver.
func (b *mailbox) wakeLocked(r int) {
	for i := range b.recv {
		if c := &b.recv[i]; c.awaiting != 0 && (c.awaiting == r || r == 0) {
			pulse(c.ready)
		}
	}
}

func (b *mailbox) hosts(p int) bool { return uint(p-b.lo) < uint(b.hosted) }

// newest is the latest round a deposit may carry, asked+2. It needs no
// lock: a datagram reader asks it before a frame may claim reassembly
// state.
func (b *mailbox) newest() int { return int(b.asked.Load()) + 2 }

// deadAt reports whether sender q is declared dead for round r.
func (b *mailbox) deadAt(q, r int) bool {
	return b.dead != nil && b.dead[q] != 0 && r >= b.dead[q]
}

// turnLocked returns the ring slot serving round r, turning it over if r
// is the first to touch it: the earlier round's entries are cleared and
// the dead senders' pre-filled — death is permanent. nil when the slot
// already serves a later round, or when turning it over would recycle a
// round whose ship is pending: a hosted sender ran window rounds ahead
// of its node's ship, which breaks the transport contract's bounded
// lookahead and fails the mailbox.
func (b *mailbox) turnLocked(r int) *roundSlot {
	s := &b.ring[r%window]
	if s.tag == r {
		return s
	}
	if s.tag > r {
		return nil
	}
	if b.next != 0 && s.tag >= b.next {
		b.failLocked(fmt.Errorf("transport: node of p%d: round %d reached the ring before round %d shipped (bounded lookahead)",
			b.lo+1, r, s.tag))
		return nil
	}
	for i := range b.recv {
		if b.recv[i].entered <= s.tag {
			clear(s.buf) // someone may still read the old views: leave them to the GC
			break
		}
	}
	clear(s.state)
	s.tag, s.count = r, 0
	for q, from := range b.dead {
		if from != 0 && r >= from {
			s.state[q] = slotDead
			s.count++
		}
	}
	return s
}

// openLocked reports whether round slot s (nil = recycled or failed) is
// still waiting for senders on a live mailbox.
func (b *mailbox) openLocked(s *roundSlot) bool {
	return s != nil && s.count < b.n && b.err == nil && !b.closed
}

// depositLocked places sender from's round-r frame: payload for the
// hosted receivers in row, a drop tombstone for the rest. It never
// blocks; a deposit that fails the mailbox surfaces at the next await. A
// frame from a declared-dead sender is in-flight bytes racing the death
// verdict: dropped under either policy, never a violation.
func (b *mailbox) depositLocked(from, r int, payload []byte, row graph.NodeSet) {
	if b.closed || b.err != nil || b.deadAt(from, r) {
		return
	}
	var s *roundSlot
	if r >= 1 && r <= b.newest() {
		s = b.turnLocked(r)
	}
	switch {
	case s != nil && s.state[from] == slotEmpty:
		s.state[from] = slotArrived
		if s.count++; s.count == b.n {
			b.wakeLocked(r)
		}
	case s != nil && s.state[from] == slotLost && b.hosts(from):
		// The node sealed the round before this hosted sender posted it:
		// of its node only the sender still hears itself (the model
		// requires the self-loop, see await); its row still ships to the
		// other nodes.
		s.state[from] = slotLostPosted
	case b.deadline > 0 || b.err != nil:
		return // a late or replayed datagram, or turnLocked failed the mailbox
	case s == nil:
		b.failLocked(fmt.Errorf("transport: round-%d frame from p%d outside the receive window [1, %d]",
			r, from+1, b.newest()))
		return
	default:
		b.failLocked(fmt.Errorf("transport: duplicate round-%d frame from p%d", r, from+1))
		return
	}
	s.row[from].CopyFrom(row)
	// A kept payload is non-nil whatever its length: nil means "not
	// delivered" to Gather's caller and "dead sender" to a frame.
	if s.buf[from] = append(s.buf[from][:0], payload...); s.buf[from] == nil {
		s.buf[from] = []byte{}
	}
}

// claimLocked claims round next for the caller once every hosted sender
// has posted it or is dead for it, unless another call holds the claim:
// it fills bufs with the hosted senders' payloads (nil for a dead
// sender: it ships as an all-links tombstone) and rows with their
// delivery rows, and returns the round; 0 means nothing to ship now. The
// views stay valid while the claim is held — the ring does not recycle
// a round whose ship is pending — and the caller ends it by moving next
// on. A round whose hosted senders are all dead ends the node's
// shipping: death is permanent, so every later round is the same.
func (b *mailbox) claimLocked(bufs [][]byte, rows []graph.NodeSet) int {
	r := b.next
	if r == 0 || b.claimed || b.closed || b.err != nil {
		return 0
	}
	s := &b.ring[r%window]
	live := false
	// Last sender first: a block posts in order, so its last post is
	// the one that completes the round.
	for i := len(bufs) - 1; i >= 0; i-- {
		q := b.lo + i
		switch {
		case s.tag == r && (s.state[q] == slotArrived || s.state[q] == slotLostPosted):
			bufs[i], rows[i] = s.buf[q], s.row[q]
			live = true
		case b.deadAt(q, r):
			bufs[i] = nil
		default:
			return 0 // not posted yet
		}
	}
	if !live {
		b.next = 0
		return 0
	}
	b.claimed = true
	return r
}

// await blocks hosted receiver qi until round r closes under the
// mailbox's policy and fills `into` with its bit of every sender's row:
// the payload views, nil for drops, injected or real. Rounds must be
// awaited in order; the views are valid until the receiver's next
// await. The second result lists the senders a deadline closure gave up
// on (nil when the round closed by count), valid as long as the views.
// A receiver that asks for a round the ring has already recycled has
// missed all of it: a violation by count, an all-missed round under a
// deadline.
func (b *mailbox) await(qi, r int, into [][]byte) ([][]byte, []int, error) {
	if cap(into) < b.n {
		into = make([][]byte, b.n)
	}
	into = into[:b.n]
	b.mu.Lock()
	defer b.mu.Unlock()
	c := &b.recv[qi]
	var s *roundSlot
	switch {
	case b.err != nil || b.closed:
	case r != c.entered+1:
		b.failLocked(fmt.Errorf("transport: Gather(%d) after round %d (rounds must be gathered in order)", r, c.entered))
	default:
		c.entered = r
		if int64(r) > b.asked.Load() {
			b.asked.Store(int64(r)) // once per round, not per receiver: a store is a fence
		}
		if s = b.turnLocked(r); b.openLocked(s) {
			c.awaiting = r
			s = b.parkLocked(c, r)
			c.awaiting = 0
		}
		if s == nil && b.deadline == 0 {
			b.failLocked(fmt.Errorf("transport: Gather(%d) after the ring moved on to round %d", r, b.ring[r%window].tag))
		}
	}
	if b.err != nil {
		return nil, nil, b.err
	}
	if b.closed {
		return nil, nil, ErrClosed
	}
	c.missed = c.missed[:0]
	self := b.lo + qi
	for q := range into {
		st := slotLost // of a recycled round, all is missed
		if s != nil {
			st = s.state[q]
		} else if b.deadAt(q, r) {
			st = slotDead
		}
		var heard []byte
		switch {
		case st == slotArrived && s.row[q].Has(self), st == slotLostPosted && q == self:
			heard = s.buf[q]
		case st >= slotLost:
			c.missed = append(c.missed, q)
		}
		into[q] = heard
	}
	if len(c.missed) == 0 {
		return into, nil, nil
	}
	return into, c.missed, nil
}

// parkLocked parks receiver c until round r is no longer open and
// returns its slot (nil if the ring recycled it meanwhile). Under a
// deadline, once the deadline fires the round gets one grace window per
// burst of new arrivals, and the first receiver to see a grace window
// pass with no progress seals it for the node.
func (b *mailbox) parkLocked(c *cursor, r int) *roundSlot {
	if c.timer != nil {
		c.timer.Reset(b.deadline)
		defer c.timer.Stop()
	}
	fired, inGrace, seen := false, false, 0
	for {
		s := b.turnLocked(r)
		if !b.openLocked(s) {
			return s
		}
		if fired {
			if inGrace && s.count == seen {
				for q, st := range s.state {
					if st == slotEmpty {
						s.state[q] = slotLost
					}
				}
				s.count = b.n
				b.wakeLocked(r)
				if b.node != nil {
					b.node.sealedLocked(r, s.state)
				}
				return s
			}
			inGrace, seen = true, s.count
			c.timer.Reset(b.grace)
		}
		b.mu.Unlock()
		if c.timer == nil {
			<-c.ready
		} else {
			select {
			case <-c.ready:
				fired = false
			case <-c.timer.C:
				fired = true
			}
		}
		b.mu.Lock()
	}
}

// markDeadLocked declares sender `from` dead from round fromRound
// onward (fromRound <= 1 means from the beginning): its missing entries
// for every affected round in the ring are pre-filled so the rounds
// close by count instead of wedging (count-only) or burning the
// deadline, later rounds are pre-filled as their slots turn over, any
// frame from it still in flight is silently dropped, and its node's
// ship stops waiting for it. Absence is converted to an explicit,
// permanent tombstone the moment the death verdict lands.
func (b *mailbox) markDeadLocked(from, fromRound int) {
	fromRound = max(fromRound, 1)
	if b.closed || b.err != nil || (b.dead != nil && b.dead[from] != 0 && b.dead[from] <= fromRound) {
		return
	}
	if b.dead == nil {
		b.dead = make([]int, b.n)
	}
	b.dead[from] = fromRound
	for i := range b.ring {
		if s := &b.ring[i]; s.tag >= fromRound && s.state[from] == slotEmpty {
			s.state[from] = slotDead
			if s.count++; s.count == b.n {
				b.wakeLocked(s.tag)
			}
		}
	}
}

// fail poisons the mailbox: pending and future awaits return err. Used
// by the mesh to surface link failures.
func (b *mailbox) fail(err error) {
	b.mu.Lock()
	b.failLocked(err)
	b.mu.Unlock()
}

func (b *mailbox) failLocked(err error) {
	if b.err == nil && !b.closed {
		b.err = err
		b.wakeLocked(0)
	}
}

// close wakes every parked await with ErrClosed. Slot buffers are left
// to the GC: a receiver may still be reading one.
func (b *mailbox) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.wakeLocked(0)
	}
	b.mu.Unlock()
}
