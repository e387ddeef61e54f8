package transport

import (
	"bytes"
	"testing"
	"time"
)

// noDeadline keeps a deadline mailbox from closing rounds on its own: any
// round that completes did so by count (or markDead pre-fill), never by
// a deadline burn.
const noDeadline = time.Hour

// closurePolicies returns the mailbox under its two closure policies:
// count-only (deadline 0, the reliable links) and deadline+grace (the
// best-effort links). The markDead contract — pre-fill affected
// in-window rounds, persist across slot recycling, silently drop
// in-flight frames from the dead sender — holds under both, so every
// scenario runs against each.
func closurePolicies() map[string]func(n int) *mailbox {
	return map[string]func(n int) *mailbox{
		"round": func(n int) *mailbox { return newMailbox(n, 0, 0) },
		"lossy": func(n int) *mailbox { return newMailbox(n, noDeadline, noDeadline) },
	}
}

// awaitResult runs await under a watchdog: a count-only mailbox has no
// deadline to fall back on, so a bug that leaves a round open would hang
// the test forever otherwise.
func awaitResult(t *testing.T, b *mailbox, r int) ([][]byte, []int, error) {
	t.Helper()
	type result struct {
		recv   [][]byte
		missed []int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		recv, missed, err := b.await(r, nil)
		done <- result{recv, missed, err}
	}()
	select {
	case res := <-done:
		return res.recv, res.missed, res.err
	case <-time.After(10 * time.Second):
		t.Fatalf("await(%d) still parked", r)
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
			b.deposit(0, 1, []byte("a"), nil)
			b.deposit(1, 1, []byte("b"), nil)
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
				b.deposit(0, r, payload, nil)
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
// the slot — and the dropped frame's buffer is released.
func TestMarkDeadDropsInFlightFrames(t *testing.T) {
	for name, mk := range closurePolicies() {
		t.Run(name, func(t *testing.T) {
			b := mk(2)
			b.markDead(1, 2)
			b.deposit(1, 1, []byte("pre-crash"), nil) // before the death round: delivered
			late := newRefBuf([]byte("post-crash"), 1)
			b.deposit(1, 2, late.b, late) // at the death round: dropped
			if got := late.refs.Load(); got != 0 {
				t.Errorf("dropped in-flight frame holds %d references, want 0 (leaked buffer)", got)
			}
			for r := 1; r <= 2; r++ {
				b.deposit(0, r, []byte("live"), nil)
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
				b.deposit(0, r, []byte("live"), nil)
				if r < 2 {
					b.deposit(1, r, []byte("dying"), nil)
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
// released — is a protocol violation that fails a count-only mailbox
// (its link is reliable, so the frame has no innocent explanation) and
// a late or replayed datagram that a deadline mailbox ignores, releasing
// the buffer reference it carried and disturbing nothing.
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
					b.deposit(q, 1, []byte("r1"), nil)
				}
				awaitChecked(t, b, 1)
				b.deposit(0, 2, []byte("r2"), nil)
				// Gathering round 2 releases round 1 and moves the window to
				// (1, 1+window]; each case is unplaceable on either side of
				// that release, so the sleep only makes the await park first.
				go func() {
					time.Sleep(10 * time.Millisecond)
					bad := newRefBuf([]byte("unplaceable"), 1)
					b.deposit(0, d.round, bad.b, bad)
					if policy == "lossy" {
						if got := bad.refs.Load(); got != 0 {
							t.Errorf("ignored deposit holds %d references, want 0 (leaked buffer)", got)
						}
						b.deposit(1, 2, []byte("r2"), nil)
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
