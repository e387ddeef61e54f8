package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// window is the number of rounds a receiver keeps in flight. The round
// loop needs at most three consecutive rounds live at once — round r-1
// (gathered, payloads still valid until the next Gather call), round r
// (filling), and round r+1 (pipelined sends racing ahead of the
// round barrier; bounded-lookahead caps senders at one round past
// the lowest un-gathered round). Four slots leave one round of slack so
// a violated contract is detected as an error instead of corrupting a
// live slot.
const window = 4

// refBuf is a pooled, reference-counted payload buffer. One broadcast
// payload is copied into a refBuf exactly once and shared read-only by
// every receiver it is delivered to (plus, on a multi-node mesh, the
// writer loop that serializes it onto the wire); the last release returns it
// to the pool. Buffers abandoned on teardown paths are deliberately not
// recycled — the GC reclaims them — so a receiver still reading a
// payload during Close can never see the buffer reused.
type refBuf struct {
	b    []byte
	refs atomic.Int32
}

var bufPool = sync.Pool{New: func() any { return new(refBuf) }}

// newRefBuf copies payload into a pooled buffer with the given initial
// reference count.
func newRefBuf(payload []byte, refs int32) *refBuf {
	rb := bufPool.Get().(*refBuf)
	rb.b = append(rb.b[:0], payload...)
	rb.refs.Store(refs)
	return rb
}

// release drops one reference; the last one returns the buffer to the
// pool.
func (rb *refBuf) release() {
	if rb.refs.Add(-1) == 0 {
		bufPool.Put(rb)
	}
}

// slot is one sender's round-r delivery at one receiver: a payload view
// (nil for a drop tombstone — the link was cut but the round still
// closes) plus the backing buffer to release when the round is recycled.
type slot struct {
	payload []byte
	buf     *refBuf
	present bool
}

// mailbox is a receiver's round buffer: a fixed ring of `window` round
// slots, each holding one delivery per sender. Senders (or a link's
// reader loop) deposit without ever blocking, and the receiving process
// parks in await until its round closes. How a round closes — and what a
// deposit the ring cannot take means — is one policy, derived from the
// mailbox's deadline:
//
//	deadline  a round closes               duplicate / out-of-window deposit
//	0         by count: all n senders      protocol violation: fails the
//	          deposited or declared dead   mailbox (the link is reliable, so
//	                                       the frame cannot be explained)
//	> 0       by count, or deadline then   late or replayed datagram: ignored,
//	          grace windows until one      its buffer reference released
//	          passes with no new arrival
//
// Under a deadline, absence is loss: senders still missing at closure
// are recorded as nil payloads — to the process above, real loss is
// indistinguishable from an injected-drop tombstone — and reported to
// the caller for its stall detector. Injected drops (Policy tombstones
// carried in the frame bitmap) still arrive as explicit nil deposits,
// so a round whose losses are all injected closes immediately; the
// deadline only pays for frames the network genuinely lost.
//
// Wake-ups use a 1-buffered pulse channel so a deadline await can select
// between arrivals and its round timer without polling. Deposits pulse
// only when they complete the awaited round: a partial arrival changes
// nothing a parked await could act on (the deadline+grace rule samples
// progress at timer fires, not at arrivals), and the skipped wake-park
// cycles are a measurable share of a fast round's budget. A count-only
// await never touches the timer — arming and stopping it every round
// costs 30-50% of an in-process round.
type mailbox struct {
	mu sync.Mutex
	n  int

	deadline, grace time.Duration // closure policy; deadline 0 = by count only

	gathered int // highest round already handed to the process
	released int // highest round whose buffers were recycled
	awaiting int // round a parked await is blocked on (0 = none)
	count    [window]int
	slots    [window][]slot
	dead     []int // per sender: first dead round (0 = alive), lazily allocated
	missed   []int // senders the last deadline closure gave up on (scratch)

	ready chan struct{} // pulsed when the awaited round completes or the state changes
	timer *time.Timer   // round-closure timer, owned by the awaiting process; nil without a deadline

	err    error
	closed bool
}

func newMailbox(n int, deadline, grace time.Duration) *mailbox {
	b := &mailbox{n: n, deadline: deadline, grace: grace, ready: make(chan struct{}, 1)}
	if deadline > 0 {
		b.timer = time.NewTimer(time.Hour)
		b.timer.Stop()
	}
	for i := range b.slots {
		b.slots[i] = make([]slot, n)
	}
	return b
}

// pulseLocked nudges a parked await; a pulse already pending is enough.
func (b *mailbox) pulseLocked() {
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// deposit delivers sender from's round-r frame (payload nil = drop
// tombstone). It never blocks; buf, when non-nil, must already carry
// this receiver's reference, which is released here if the deposit is
// ignored. A frame from a declared-dead sender (its slot was pre-filled
// by markDead) is in-flight bytes racing the death verdict: dropped
// under either policy, never a violation.
func (b *mailbox) deposit(from, r int, payload []byte, buf *refBuf) {
	b.mu.Lock()
	if b.closed || b.err != nil {
		// Teardown: abandon the buffer to the GC (see close).
		b.mu.Unlock()
		return
	}
	fromDead := b.dead != nil && b.dead[from] != 0 && r >= b.dead[from]
	outside := r <= b.released || r > b.released+window
	if fromDead || outside || b.slots[r%window][from].present {
		if !fromDead && b.deadline == 0 {
			if outside {
				b.failLocked(fmt.Errorf("transport: round-%d frame from p%d outside the receive window (%d, %d]",
					r, from+1, b.released, b.released+window))
			} else {
				b.failLocked(fmt.Errorf("transport: duplicate round-%d frame from p%d", r, from+1))
			}
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		if buf != nil {
			buf.release()
		}
		return
	}
	// Field writes, not a slot literal: the composite assignment compiles
	// to a temporary plus a copy and costs a tenth of an in-process round.
	s := &b.slots[r%window][from]
	s.payload, s.buf, s.present = payload, buf, true
	b.count[r%window]++
	if r == b.awaiting && b.count[r%window] == b.n {
		b.pulseLocked()
	}
	b.mu.Unlock()
}

// await blocks until round r closes under the mailbox's policy and fills
// `into` with the payload views (nil entries for drops, injected or
// real). Rounds must be awaited in order; round r-1's buffers are
// recycled on entry (the caller's validity contract: payloads live until
// the next Gather). The second result lists the senders a deadline
// closure gave up on (nil when the round closed by count); it is valid
// only until the next await call.
func (b *mailbox) await(r int, into [][]byte) ([][]byte, []int, error) {
	if cap(into) < b.n {
		into = make([][]byte, b.n)
	}
	into = into[:b.n]
	b.mu.Lock()
	defer b.mu.Unlock()
	if r != b.gathered+1 {
		err := fmt.Errorf("transport: Gather(%d) after round %d (rounds must be gathered in order)", r, b.gathered)
		b.failLocked(err)
		return nil, nil, err
	}
	b.releaseUpToLocked(r - 1)
	b.missed = b.missed[:0]
	idx := r % window
	if b.openLocked(idx) {
		b.awaiting = r
		if b.deadline == 0 {
			for b.openLocked(idx) {
				b.mu.Unlock()
				<-b.ready
				b.mu.Lock()
			}
		} else {
			b.awaitDeadlineLocked(idx)
		}
		b.awaiting = 0
	}
	if b.err != nil {
		return nil, nil, b.err
	}
	if b.closed {
		return nil, nil, ErrClosed
	}
	b.gathered = r
	for q, s := range b.slots[idx] {
		into[q] = s.payload
	}
	missed := b.missed
	if len(missed) == 0 {
		missed = nil
	}
	return into, missed, nil
}

// openLocked reports whether the round in ring slot idx is still
// waiting for senders on a live mailbox.
func (b *mailbox) openLocked(idx int) bool {
	return b.count[idx] < b.n && b.err == nil && !b.closed
}

// awaitDeadlineLocked parks until the round in slot idx completes or the
// deadline+grace rule seals it: once the deadline fires, the round gets
// one grace window per burst of new arrivals, and closes the first time
// a grace window passes with no progress. Every sender still missing
// becomes a nil payload and is recorded in b.missed for the stall
// detector: an injected drop arrives as an explicit tombstone and a dead
// sender's slot is pre-filled, so a missed entry means the network (or a
// crashed peer) went silent.
func (b *mailbox) awaitDeadlineLocked(idx int) {
	b.timer.Reset(b.deadline)
	inGrace := false
	seen := b.count[idx]
	for b.openLocked(idx) {
		b.mu.Unlock()
		select {
		case <-b.ready:
			b.mu.Lock()
		case <-b.timer.C:
			b.mu.Lock()
			if !b.openLocked(idx) {
				continue
			}
			if inGrace && b.count[idx] == seen {
				ss := b.slots[idx]
				for i := range ss {
					if !ss[i].present {
						ss[i] = slot{present: true}
						b.missed = append(b.missed, i)
					}
				}
				b.count[idx] = b.n
				continue
			}
			inGrace = true
			seen = b.count[idx]
			b.timer.Reset(b.grace)
		}
	}
	b.timer.Stop()
}

// markDead declares sender `from` dead from round fromRound onward
// (fromRound <= 1 means from the beginning): its missing deliveries for
// every affected in-window round are pre-filled as nil payloads so the
// rounds close by count instead of wedging (count-only) or burning the
// deadline, future rounds are pre-filled as their slots recycle, and any
// frame from it still in flight is silently dropped. Absence is
// converted to an explicit, permanent tombstone the moment the death
// verdict lands.
func (b *mailbox) markDead(from, fromRound int) {
	if fromRound < 1 {
		fromRound = 1
	}
	b.mu.Lock()
	if b.closed || b.err != nil || (b.dead != nil && b.dead[from] != 0 && b.dead[from] <= fromRound) {
		b.mu.Unlock()
		return
	}
	if b.dead == nil {
		b.dead = make([]int, b.n)
	}
	b.dead[from] = fromRound
	for rr := b.released + 1; rr <= b.released+window; rr++ {
		if rr < fromRound {
			continue
		}
		if s := &b.slots[rr%window][from]; !s.present {
			s.present = true
			b.count[rr%window]++
		}
	}
	b.pulseLocked()
	b.mu.Unlock()
}

// releaseUpToLocked recycles every round up to and including r. A
// recycled slot next serves round rr+window, so dead senders' entries
// are pre-filled here — death is permanent.
func (b *mailbox) releaseUpToLocked(r int) {
	for rr := b.released + 1; rr <= r; rr++ {
		ss := b.slots[rr%window]
		for i := range ss {
			if ss[i].buf != nil {
				ss[i].buf.release()
			}
			ss[i] = slot{}
		}
		b.count[rr%window] = 0
		if b.dead != nil {
			for i := range ss {
				if b.dead[i] != 0 && rr+window >= b.dead[i] {
					ss[i].present = true
					b.count[rr%window]++
				}
			}
		}
	}
	if r > b.released {
		b.released = r
	}
}

// fail poisons the mailbox: the pending and all future awaits return
// err. Used by the mesh to surface link failures.
func (b *mailbox) fail(err error) {
	b.mu.Lock()
	b.failLocked(err)
	b.mu.Unlock()
}

func (b *mailbox) failLocked(err error) {
	if b.err == nil && !b.closed {
		b.err = err
		b.pulseLocked()
	}
}

// close wakes any parked await with ErrClosed. In-flight buffers are
// dropped on the floor for the GC — recycling them here could hand a
// buffer a receiver is still reading back to a concurrent sender.
func (b *mailbox) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.pulseLocked()
	}
	b.mu.Unlock()
}
