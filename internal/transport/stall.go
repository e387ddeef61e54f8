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
	// Dead counts the processes terminal death verdicts declared dead:
	// a stall verdict counts its suspect node's processes once, and a
	// lost TCP link counts the peer node's processes at each end that
	// rules on it.
	Dead atomic.Int64
}

// stallDetector is one receiving endpoint's view of its senders'
// liveness: it folds the missed-sender lists of deadline-closed rounds
// into per-sender consecutive-miss streaks and escalates a streak of
// DeadAfter to a terminal death verdict. State is endpoint-local (no
// locking — Gather is single-goroutine); a verdict goes to the mesh,
// which applies it once, in every node's mailbox but the suspect's.
//
// The streak rule distinguishes a stall from a loss burst only by
// length: DeadAfter consecutive misses. Injected Policy drops never
// count (they arrive as explicit tombstones), and a sender already
// declared dead stops being reported missed (its slots are pre-filled),
// so the detector self-quiesces after a verdict.
type stallDetector struct {
	deadAfter int
	verdict   func(sender int) // death verdict on sender's node

	lastMiss []int // round of the most recent miss, per sender
	streak   []int // consecutive-miss streak ending at lastMiss, per sender
}

// newStallDetector returns a detector for n senders, or nil when
// detection is disabled (observe on a nil detector does nothing).
func newStallDetector(n, deadAfter int, verdict func(sender int)) *stallDetector {
	if deadAfter <= 0 {
		return nil
	}
	return &stallDetector{
		deadAfter: deadAfter,
		verdict:   verdict,
		lastMiss:  make([]int, n),
		streak:    make([]int, n),
	}
}

// observe folds round r's missed-sender list (from a deadline closure)
// into the streaks and fires verdicts. Senders absent from the list reset
// lazily: a streak only continues when the misses are consecutive rounds.
func (d *stallDetector) observe(r int, missed []int) {
	if d == nil {
		return
	}
	for _, q := range missed {
		if d.lastMiss[q] == r-1 {
			d.streak[q]++
		} else {
			d.streak[q] = 1
		}
		d.lastMiss[q] = r
		if d.streak[q] == d.deadAfter {
			d.verdict(q)
		}
	}
}
