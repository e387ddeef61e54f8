package transport

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/graph"
)

// noDeadline keeps a deadline mailbox from closing rounds on its own: any
// round that completes did so by count (or markDead pre-fill), never by
// a deadline burn.
const noDeadline = time.Hour

// toAll is the delivery row that reaches the one receiver the scenarios'
// mailboxes host (process 0).
var toAll = graph.NodeSetOf(0)

// closurePolicies returns a mailbox hosting one receiver under its two
// closure policies:
// count-only (deadline 0, the reliable links) and deadline+grace (the
// best-effort links). The markDead contract — pre-fill affected
// in-window rounds, persist across slot recycling, silently drop
// in-flight frames from the dead sender — holds under both, so every
// scenario runs against each.
func closurePolicies() map[string]func(n int) *mailbox {
	return map[string]func(n int) *mailbox{
		"round": func(n int) *mailbox { return newMailbox(n, 0, 1, 0, 0) },
		"lossy": func(n int) *mailbox { return newMailbox(n, 0, 1, noDeadline, noDeadline) },
	}
}

// deposit is depositLocked under the lock, as a hosted sender's
// Broadcast or a link's frame makes it, without the ship.
func (b *mailbox) deposit(from, r int, payload []byte, row graph.NodeSet) {
	b.mu.Lock()
	b.depositLocked(from, r, payload, row)
	b.mu.Unlock()
}

// markDead is markDeadLocked under the lock.
func (b *mailbox) markDead(from, fromRound int) {
	b.mu.Lock()
	b.markDeadLocked(from, fromRound)
	b.mu.Unlock()
}

// awaitResult runs await under a watchdog: a count-only mailbox has no
// deadline to fall back on, so a bug that leaves a round open would hang
// the test forever otherwise.
func awaitResult(t *testing.T, b *mailbox, r int) ([][]byte, []int, error) {
	t.Helper()
	return awaitAt(t, b, 0, r)
}

// awaitAt is awaitResult for hosted receiver qi.
func awaitAt(t *testing.T, b *mailbox, qi, r int) ([][]byte, []int, error) {
	t.Helper()
	type result struct {
		recv   [][]byte
		missed []int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		recv, missed, err := b.await(qi, r, nil)
		done <- result{recv, missed, err}
	}()
	select {
	case res := <-done:
		return res.recv, res.missed, res.err
	case <-time.After(10 * time.Second):
		t.Fatalf("receiver %d: await(%d) still parked", qi, r)
		return nil, nil, nil
	}
}

// awaitChecked is awaitResult for rounds that must close by count.
func awaitChecked(t *testing.T, b *mailbox, r int) [][]byte {
	t.Helper()
	recv, missed, err := awaitResult(t, b, r)
	if err != nil {
		t.Fatalf("await(%d): %v", r, err)
	}
	if missed != nil {
		t.Fatalf("await(%d) reported missed senders %v; the round must close by count", r, missed)
	}
	return recv
}

// TestMarkDeadUnblocksParkedAwait parks an await on one missing sender
// and lands the death verdict from another goroutine: the round must
// close by count with a nil tombstone in the dead sender's slot and the
// live payloads intact.
func TestMarkDeadUnblocksParkedAwait(t *testing.T) {
	for name, mk := range closurePolicies() {
		t.Run(name, func(t *testing.T) {
			b := mk(3)
			b.deposit(0, 1, []byte("a"), toAll)
			b.deposit(1, 1, []byte("b"), toAll)
			go func() {
				time.Sleep(10 * time.Millisecond)
				b.markDead(2, 1)
			}()
			recv := awaitChecked(t, b, 1)
			if !bytes.Equal(recv[0], []byte("a")) || !bytes.Equal(recv[1], []byte("b")) {
				t.Errorf("live payloads corrupted: %q %q", recv[0], recv[1])
			}
			if recv[2] != nil {
				t.Errorf("dead sender delivered %q, want nil tombstone", recv[2])
			}
		})
	}
}

// TestMarkDeadPersistsAcrossRecycle drives three full window turnovers
// past a death verdict: every recycled slot must re-materialize the dead
// sender's tombstone, so no later round ever waits on (or hears from)
// the dead peer again.
func TestMarkDeadPersistsAcrossRecycle(t *testing.T) {
	for name, mk := range closurePolicies() {
		t.Run(name, func(t *testing.T) {
			b := mk(2)
			b.markDead(1, 1)
			for r := 1; r <= 3*window; r++ {
				payload := []byte{byte(r)}
				b.deposit(0, r, payload, toAll)
				recv := awaitChecked(t, b, r)
				if !bytes.Equal(recv[0], payload) {
					t.Fatalf("round %d: live payload %v, want %v", r, recv[0], payload)
				}
				if recv[1] != nil {
					t.Fatalf("round %d: dead sender resurrected with %v", r, recv[1])
				}
			}
		})
	}
}

// TestMarkDeadDropsInFlightFrames pins the race between a death verdict
// and bytes already on the wire: frames from before the death round are
// delivered, frames at or after it are silently dropped — never a
// duplicate-delivery protocol violation, since the verdict pre-filled
// the slot.
func TestMarkDeadDropsInFlightFrames(t *testing.T) {
	for name, mk := range closurePolicies() {
		t.Run(name, func(t *testing.T) {
			b := mk(2)
			b.markDead(1, 2)
			b.deposit(1, 1, []byte("pre-crash"), toAll)  // before the death round: delivered
			b.deposit(1, 2, []byte("post-crash"), toAll) // at the death round: dropped
			for r := 1; r <= 2; r++ {
				b.deposit(0, r, []byte("live"), toAll)
				recv := awaitChecked(t, b, r)
				switch {
				case r == 1 && !bytes.Equal(recv[1], []byte("pre-crash")):
					t.Errorf("round 1: pre-crash frame lost, got %v", recv[1])
				case r == 2 && recv[1] != nil:
					t.Errorf("round 2: in-flight frame from dead sender delivered: %q", recv[1])
				}
			}
		})
	}
}

// TestMarkDeadIsIdempotentAndMonotone re-issues verdicts: repeating one
// is a no-op, a later death round never weakens an earlier one, and an
// earlier round tightens it. None of this may double-count a slot or
// trip the duplicate-delivery check.
func TestMarkDeadIsIdempotentAndMonotone(t *testing.T) {
	for name, mk := range closurePolicies() {
		t.Run(name, func(t *testing.T) {
			b := mk(2)
			b.markDead(1, 3)
			b.markDead(1, 3) // repeat: no-op
			b.markDead(1, 4) // later round: must not resurrect rounds 3..
			b.markDead(1, 2) // earlier round: tightens the verdict
			for r := 1; r <= window+2; r++ {
				b.deposit(0, r, []byte("live"), toAll)
				if r < 2 {
					b.deposit(1, r, []byte("dying"), toAll)
				}
				recv := awaitChecked(t, b, r)
				if r >= 2 && recv[1] != nil {
					t.Fatalf("round %d: dead sender delivered %q", r, recv[1])
				}
				if r < 2 && recv[1] == nil {
					t.Fatalf("round %d: pre-death frame lost", r)
				}
			}
		})
	}
}

// TestUnplaceableDepositFollowsClosurePolicy pins the one place the two
// closure policies disagree: a deposit the ring cannot take — a
// duplicate (sender, round), a round beyond the window, a round already
// gathered — is a protocol violation that fails a count-only mailbox
// (its link is reliable, so the frame has no innocent explanation) and
// a late or replayed datagram that a deadline mailbox ignores,
// disturbing nothing.
func TestUnplaceableDepositFollowsClosurePolicy(t *testing.T) {
	deposits := []struct {
		name  string
		round int // the unplaceable deposit's round, made by sender 0 after round 1 was gathered
	}{
		{"duplicate", 2},
		{"beyond-window", 1 + window + 1},
		{"already-released", 1},
	}
	for policy, mk := range closurePolicies() {
		for _, d := range deposits {
			t.Run(policy+"/"+d.name, func(t *testing.T) {
				b := mk(2)
				for q := 0; q < 2; q++ {
					b.deposit(q, 1, []byte("r1"), toAll)
				}
				awaitChecked(t, b, 1)
				b.deposit(0, 2, []byte("r2"), toAll)
				// Asking for round 2 moves the placeable rounds to [1, 4]; each
				// case is unplaceable on either side of that, so the sleep
				// only makes the await park first.
				go func() {
					time.Sleep(10 * time.Millisecond)
					b.deposit(0, d.round, []byte("unplaceable"), toAll)
					if policy == "lossy" {
						b.deposit(1, 2, []byte("r2"), toAll)
					}
				}()
				recv, missed, err := awaitResult(t, b, 2)
				if policy == "round" {
					if err == nil {
						t.Fatal("count-only mailbox accepted an unplaceable deposit; want the protocol error")
					}
					if _, _, again := awaitResult(t, b, 2); again == nil {
						t.Error("mailbox recovered after a protocol violation; the failure must be sticky")
					}
					return
				}
				if err != nil || missed != nil {
					t.Fatalf("deadline mailbox: await(2) = missed %v, err %v; want the deposit ignored", missed, err)
				}
				if !bytes.Equal(recv[0], []byte("r2")) || !bytes.Equal(recv[1], []byte("r2")) {
					t.Errorf("ignored deposit disturbed round 2: %q %q", recv[0], recv[1])
				}
			})
		}
	}
}

// The scenarios below are the obligations a mailbox takes on by serving
// a whole node: several hosted receivers read one ring.

// noSelfLoops is a Schedule that also cuts every self link.
type noSelfLoops struct{ Schedule }

func (p noSelfLoops) Deliver(r, from int, to graph.NodeSet) {
	p.Schedule.Deliver(r, from, to)
	to.Remove(from)
}

// TestHostedReceiversReadTheirOwnColumn: three co-hosted processes under
// a Schedule with one local link cut. One write per sender serves all
// three receivers; each must see exactly its own column of the round —
// its bit of every sender's row — and itself whatever the policy says.
func TestHostedReceiversReadTheirOwnColumn(t *testing.T) {
	const n = 3
	g := graph.CompleteDigraph(n)
	g.RemoveEdge(0, 1)
	tr := NewInProc(n, noSelfLoops{NewSchedule(adversary.Static(g))})
	defer tr.Close()
	for r, round := range driveLockstep(t, tr, 2*window) {
		for q, heardBy := range round {
			for p, heard := range heardBy {
				if want := p == q || g.HasEdge(p, q); heard != want {
					t.Errorf("round %d: p%d heard p%d = %v, want %v", r+1, q+1, p+1, heard, want)
				}
			}
		}
	}
}

// TestSealedRoundIsSharedByHostedReceivers: a node hosting two receivers
// on a deadline mesh, one remote sender silent. The first receiver whose
// deadline and grace pass seals the round for the node; the second reads
// the same arrivals and the same missed list without waiting out a
// deadline of its own, and neither a frame that arrives after the seal
// nor a forged far-future one disturbs it.
func TestSealedRoundIsSharedByHostedReceivers(t *testing.T) {
	b := newMailbox(3, 0, 2, 20*time.Millisecond, 5*time.Millisecond)
	both := graph.NodeSetOf(0, 1)
	b.deposit(0, 1, []byte("a"), both)
	b.deposit(1, 1, []byte("b"), both)
	b.deposit(2, 1<<40, []byte("forged"), both)
	first, missed, err := awaitAt(t, b, 0, 1)
	if err != nil || !slices.Equal(missed, []int{2}) {
		t.Fatalf("sealing receiver: missed %v, err %v; want [2]", missed, err)
	}
	b.deposit(2, 1, []byte("late"), both)
	second, missed, err := awaitAt(t, b, 1, 1)
	if err != nil || !slices.Equal(missed, []int{2}) {
		t.Fatalf("second receiver: missed %v, err %v; want the sealed round's [2]", missed, err)
	}
	for qi, recv := range [][][]byte{first, second} {
		if string(recv[0]) != "a" || string(recv[1]) != "b" || recv[2] != nil {
			t.Errorf("receiver %d read %q; want a, b and nil for the lost sender", qi, recv)
		}
	}
	// The seal is the round's, not a receiver's: round 2 is open again.
	for q := 0; q < 3; q++ {
		b.deposit(q, 2, []byte("r2"), both)
	}
	if _, missed, err := awaitAt(t, b, 1, 2); err != nil || missed != nil {
		t.Fatalf("round 2 after a sealed round: missed %v, err %v", missed, err)
	}
}

// TestStalledHostedSenderStillReachesPeerNode: on a 2-node deadline mesh
// node 1 hosts p2 and p3. p3 posts round 2 only after p2 has sealed it
// without p3: p3's Broadcast still ships its payload, so p1 on the
// other node hears it, and p3 still hears itself — the seal costs it its
// co-hosted receiver, nothing else.
func TestStalledHostedSenderStillReachesPeerNode(t *testing.T) {
	tr, err := NewTCPMeshLoopbackOpts(3, 2, nil, TCPOpts{RoundTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	eps := make([]Endpoint, 3)
	for i := range eps {
		if eps[i], err = tr.Endpoint(i); err != nil {
			t.Fatal(err)
		}
	}
	gather := func(p, r int) [][]byte {
		t.Helper()
		recv, err := eps[p].Gather(r, nil)
		if err != nil {
			t.Fatalf("p%d round %d: %v", p+1, r, err)
		}
		return recv
	}
	broadcast := func(p, r int) {
		t.Helper()
		if err := eps[p].Broadcast(r, payloadFor(p, r)); err != nil {
			t.Fatalf("p%d round %d: %v", p+1, r, err)
		}
	}
	for p := range eps {
		broadcast(p, 1)
	}
	for p := range eps {
		gather(p, 1)
	}
	broadcast(0, 2)
	broadcast(1, 2)
	if recv := gather(1, 2); recv[0] == nil || recv[1] == nil || recv[2] != nil {
		t.Fatalf("p2 closed round 2 with %q; want p1 and itself, p3 lost", recv)
	}
	broadcast(2, 2) // after the seal
	for _, p := range []int{0, 2} {
		if recv := gather(p, 2); !bytes.Equal(recv[2], payloadFor(2, 2)) {
			t.Errorf("p%d read %q from the stalled p3, want its round-2 payload", p+1, recv[2])
		}
	}
}

// TestStoppedReceiverNeitherWedgesNorIsOverwritten: of two co-hosted
// processes one falls silent after round 1 — no more posts, no more
// Gathers — for 3*window rounds. The other keeps closing rounds (by
// deadline, or by count once the silent one is declared dead) and never
// errors; the payload view the silent receiver took in round 1 is never
// overwritten, because a slot's buffers are only reused once every
// hosted receiver has gathered past them. When the silent receiver
// resumes, the ring has long recycled the round it asks for: all of it
// is missed under a deadline, a protocol violation by count.
func TestStoppedReceiverNeitherWedgesNorIsOverwritten(t *testing.T) {
	both := graph.NodeSetOf(0, 1)
	policies := map[string]*mailbox{
		"round": newMailbox(2, 0, 2, 0, 0),
		"lossy": newMailbox(2, 0, 2, 2*time.Millisecond, time.Millisecond),
	}
	for policy, b := range policies {
		t.Run(policy, func(t *testing.T) {
			payload := func(r int) []byte { return bytes.Repeat([]byte{byte(r)}, 32) }
			b.deposit(0, 1, payload(1), both)
			b.deposit(1, 1, payload(1), both)
			if _, _, err := awaitAt(t, b, 0, 1); err != nil {
				t.Fatal(err)
			}
			view, _, err := awaitAt(t, b, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if policy == "round" {
				b.markDead(1, 2)
			}
			for r := 2; r <= 1+3*window; r++ {
				b.deposit(0, r, payload(r), both)
				recv, _, err := awaitAt(t, b, 0, r)
				if err != nil {
					t.Fatalf("round %d beside a stopped receiver: %v", r, err)
				}
				if !bytes.Equal(recv[0], payload(r)) || recv[1] != nil {
					t.Fatalf("round %d: read %v", r, recv)
				}
			}
			if !bytes.Equal(view[0], payload(1)) || !bytes.Equal(view[1], payload(1)) {
				t.Errorf("the stopped receiver's round-1 view was overwritten: %v", view)
			}
			recv, missed, err := awaitAt(t, b, 1, 2)
			if policy == "round" {
				if err == nil {
					t.Error("count-closed mailbox served a recycled round; want the protocol error")
				}
				return
			}
			if err != nil || !slices.Equal(missed, []int{0, 1}) || recv[0] != nil || recv[1] != nil {
				t.Errorf("resumed receiver: recv %v, missed %v, err %v; want an all-missed round", recv, missed, err)
			}
		})
	}
}

// TestShipClaimGuardsTheRing: a node's rounds ship out of the ring in
// order, one claim at a time. A round is claimable once, when every live
// hosted sender has posted it — or a death verdict stands in for the
// last post — and the ring may not recycle a round whose ship is
// pending: while a claim is held the next window-1 rounds fit beside it,
// and one more fails the node. A wholly dead node ships nothing and
// stops guarding.
func TestShipClaimGuardsTheRing(t *testing.T) {
	both := graph.NodeSetOf(0, 1)
	bufs, rows := make([][]byte, 2), make([]graph.NodeSet, 2)
	claim := func(b *mailbox) int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.claimLocked(bufs, rows)
	}
	post := func(b *mailbox, q, r int) { b.deposit(q, r, []byte{byte(r)}, both) }
	gather := func(b *mailbox, r int) error {
		for qi := 0; qi < 2; qi++ {
			if _, _, err := b.await(qi, r, nil); err != nil {
				return err
			}
		}
		return nil
	}
	b := newMailbox(2, 0, 2, 0, 0)
	b.next = 1
	r := 1
	for ; r <= 3*window; r++ {
		post(b, 0, r)
		if got := claim(b); got != 0 {
			t.Fatalf("round %d claimed before p2 posted it", got)
		}
		post(b, 1, r)
		if got := claim(b); got != r || !bytes.Equal(bufs[0], []byte{byte(r)}) || !bytes.Equal(bufs[1], []byte{byte(r)}) {
			t.Fatalf("claim %d read %v, want round %d", got, bufs, r)
		}
		if got := claim(b); got != 0 {
			t.Fatalf("round %d claimed twice", got)
		}
		if err := gather(b, r); err != nil {
			t.Fatalf("round %d with every round shipped: %v", r, err)
		}
		b.next, b.claimed = r+1, false
	}
	post(b, 0, r)
	b.markDead(1, r)
	if got := claim(b); got != r || bufs[1] != nil {
		t.Fatalf("the verdict that completes round %d: claim %d read %v, want the round with a tombstone", r, got, bufs)
	}
	// Round r's claim is still held: the next window-1 rounds fit beside
	// it, one more does not.
	for ; r <= 4*window; r++ {
		if err := gather(b, r); err != nil {
			t.Fatalf("round %d while a claim is held: %v", r, err)
		}
		post(b, 0, r+1)
	}
	err := gather(b, r)
	if err == nil || !strings.Contains(err.Error(), "bounded lookahead") {
		t.Fatalf("round %d recycled a round whose ship is pending: err = %v", r, err)
	}

	gone := newMailbox(2, 0, 2, 0, 0)
	gone.next = 1
	gone.markDead(0, 1)
	gone.markDead(1, 1)
	if got := claim(gone); got != 0 || gone.next != 0 {
		t.Fatal("a wholly dead node ships, or keeps guarding the ring")
	}
}
