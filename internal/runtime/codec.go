package runtime

import (
	"sync"

	"kset/internal/algo"
)

// Codec is the registry's interface (internal/algo owns the contract;
// see algo.Codec for the shared-statelessness and decode-into-scratch
// requirements). The runtime aliases it so transport plumbing keeps
// reading naturally; which codec a run uses is the registry's answer for
// its family (NewRunner), never a default hardwired here.
type Codec = algo.Codec

// decodeShare deduplicates the decoding of one remote sender across the
// receivers of one node. A mesh delivers one shared payload buffer per
// (sender, round) to every receiver hosted by the node the frame arrived
// at (TCP/UDP: that node's group; senders of the receiver's own node are
// not decoded at all, see liveRun.send), and so does a transport the
// runtime knows nothing about that wraps InProc (all n), so without
// sharing each of them decodes an identical byte string. The cache keys
// on (sender, backing array): the first receiver to miss decodes with its
// own decoder and publishes the value; the others reuse it.
//
// Sharing one decoded message among receivers is the round model's
// native shape — the lockstep executor (rounds.RunSequential) hands
// every receiver the same Send(r) result, so Transition treats received
// messages as read-only by contract. Entry lifetime is also the
// model's: a value is reused only within its round, and the phase
// barrier orders every round-r Transition before any round-r+1 Decode
// can overwrite the scratch the value lives in. Stale keys cannot alias
// — a recycled payload buffer re-enters the cache under its new round,
// and the node's mailbox reuses a ring slot's buffer only once every
// receiver it hosts has gathered past that round.
type decodeShare struct {
	slots []shareSlot // per sender
}

type shareSlot struct {
	mu      sync.Mutex
	entries map[*byte]shareEntry // built by the sender's first remote message
}

type shareEntry struct {
	round int
	val   any
	err   error
}

// decode returns sender from's round-r message, decoding payload with
// dec only if no co-located receiver already has.
func (s *decodeShare) decode(dec algo.Decoder, from, r int, payload []byte) (any, error) {
	if len(payload) == 0 {
		return dec.Decode(from, payload)
	}
	sl := &s.slots[from]
	key := &payload[0]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if e, ok := sl.entries[key]; ok && e.round == r {
		return e.val, e.err
	}
	if sl.entries == nil {
		sl.entries = make(map[*byte]shareEntry, 4)
	}
	if len(sl.entries) > 64 {
		// A ring slot whose buffers a lagging receiver still pinned
		// gets fresh ones; drop dead rounds so the map tracks only the
		// live buffer set.
		for k, e := range sl.entries {
			if e.round != r {
				delete(sl.entries, k)
			}
		}
	}
	val, err := dec.Decode(from, payload)
	sl.entries[key] = shareEntry{round: r, val: val, err: err}
	return val, err
}
