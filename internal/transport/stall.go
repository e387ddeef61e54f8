package transport

import (
	"sync/atomic"
	"time"
)

// StallCounters aggregates the chaos layer's transport-health events
// across a transport's lifetime (and, in the agreement service, across
// all sessions sharing one counter set — they back the
// ksetd_peer_stalls_total / ksetd_retries_total metrics).
type StallCounters struct {
	// Stalls counts (round, sender) pairs a deadline closure gave up on:
	// one increment per sender per round a receiver closed without that
	// sender's frame.
	Stalls atomic.Int64
	// Retries counts stream reconnect attempts (TCP mesh only).
	Retries atomic.Int64
	// Dead counts terminal death verdicts (processes declared dead by a
	// stall detector or a reconnect budget running out).
	Dead atomic.Int64
}

// StallOpts tunes a transport's stall detection and recovery — the
// machinery that turns an unannounced peer death into a bounded number
// of wasted deadlines instead of a wedged run. The zero value disables
// everything (reliable lockstep behavior).
type StallOpts struct {
	// RoundTimeout, when positive on the TCP mesh, switches its receive
	// path to deadline closure: a Gather waits at most RoundTimeout (plus
	// Grace extensions while frames are still trickling in) before
	// recording missing senders as losses, exactly the UDP mesh's rule.
	// The UDP mesh has its own RoundTimeout in UDPOpts; this field is
	// ignored there.
	RoundTimeout time.Duration
	// Grace extends a timed-out round while progress continues; 0 means
	// RoundTimeout / 8 (min 100µs) when RoundTimeout is set.
	Grace time.Duration

	// DeadAfter is the stall detector's verdict threshold: a sender
	// missing from this many consecutive deadline-closed rounds at one
	// receiver is declared dead (its whole node, on a grouped mesh — an
	// OS process dying takes all its co-located round participants with
	// it). 0 disables the detector: silence costs a deadline every round
	// but is never terminal.
	DeadAfter int

	// MaxReconnect bounds redials of a broken TCP stream (dialer side).
	// While the budget lasts the peer's frames are treated as loss; when
	// it runs out the peer node gets a terminal death verdict. 0 means a
	// broken stream is immediately terminal (no redial).
	MaxReconnect int

	// Counters, when non-nil, receives stall/retry/death events.
	Counters *StallCounters

	// reconnectBase and reconnectMax bound the jittered exponential
	// backoff between redials: attempt k sleeps base<<(k-1) capped at
	// max, plus up to half that again of jitter keyed on (node, peer,
	// attempt). 5ms and 500ms; only the teardown tests park a redial
	// longer.
	reconnectBase time.Duration
	reconnectMax  time.Duration
}

// withDefaults fills the derived defaults documented on the fields.
func (o StallOpts) withDefaults() StallOpts {
	if o.RoundTimeout > 0 && o.Grace == 0 {
		o.Grace = o.RoundTimeout / 8
		if o.Grace < 100*time.Microsecond {
			o.Grace = 100 * time.Microsecond
		}
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
func (o StallOpts) backoff(node, peer, attempt int) time.Duration {
	d := o.reconnectBase << (attempt - 1)
	if d <= 0 || d > o.reconnectMax {
		d = o.reconnectMax
	}
	h := mix64(uint64(node)<<40 ^ uint64(peer)<<24 ^ uint64(attempt))
	return d + time.Duration(h%uint64(d/2+1))
}

// stallDetector is one receiving endpoint's view of its senders'
// liveness: it folds the missed-sender lists of deadline-closed rounds
// into per-sender consecutive-miss streaks and escalates a streak of
// DeadAfter to a terminal death verdict. State is endpoint-local (no
// locking — Gather is single-goroutine); verdicts go through the
// transport's DeadMarker, which is idempotent and mesh-wide.
//
// The streak rule distinguishes a stall from a loss burst only by
// length: DeadAfter consecutive misses. Injected Policy drops never
// count (they arrive as explicit tombstones), and a sender already
// declared dead stops being reported missed (its slots are pre-filled),
// so the detector self-quiesces after a verdict.
type stallDetector struct {
	deadAfter int
	counters  *StallCounters
	verdict   func(sender int) // mesh-wide death verdict for sender's node

	lastMiss []int // round of the most recent miss, per sender
	streak   []int // consecutive-miss streak ending at lastMiss, per sender
}

// newStallDetector returns a detector for n senders, or nil when
// detection is disabled (callers nil-check before observing).
func newStallDetector(n, deadAfter int, counters *StallCounters, verdict func(sender int)) *stallDetector {
	if deadAfter <= 0 {
		return nil
	}
	return &stallDetector{
		deadAfter: deadAfter,
		counters:  counters,
		verdict:   verdict,
		lastMiss:  make([]int, n),
		streak:    make([]int, n),
	}
}

// observe folds round r's missed-sender list (from a deadline closure;
// nil when the round closed by count) into the streaks and fires
// verdicts. Senders absent from the list reset lazily: a streak only
// continues when the misses are consecutive rounds.
func (d *stallDetector) observe(r int, missed []int) {
	if d == nil || len(missed) == 0 {
		return
	}
	if d.counters != nil {
		d.counters.Stalls.Add(int64(len(missed)))
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
