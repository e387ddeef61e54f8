package transport

import (
	"kset/internal/graph"
	"kset/internal/rounds"
)

// Policy decides which links deliver, and nothing else — to the round
// model a late message is an absent one, and a late sender is
// runtime.StallPlan. It answers a row: the receivers of one sender's
// round-r message, asked once per sender and round at the sending
// endpoint, so a dropped payload never crosses the wire. Implementations
// must be safe for concurrent use (every endpoint asks, each with a row
// of its own) and deterministic in (r, from) — determinism is what makes
// runs replayable.
//
// Whether a process hears itself is never the policy's to decide: the
// round model requires every self-loop, and the mesh adds it.
type Policy interface {
	// Deliver adds to `to` — an empty set over the n processes, owned by
	// the caller — every receiver of from's round-r message.
	Deliver(r, from int, to graph.NodeSet)
}

// perfect is the lossless policy a nil Policy stands for.
type perfect struct{ all graph.NodeSet }

func (p perfect) Deliver(_, _ int, to graph.NodeSet) { to.UnionWith(p.all) }

// Schedule replays an adversary's run over a real transport: the round-r
// message of from reaches exactly its out-row in the adversary's round-r
// communication graph. This is how every schedule in internal/adversary —
// and every counterexample runfile — becomes a transport fault schedule.
//
// The adversary's Graph method is called concurrently from every
// endpoint; wrap stateful generators with adversary.MaterializeRun
// first (adversary.Run itself is safe: its Graph is a pure read;
// runtime.NewRunner wraps its own, a round at a time).
type Schedule struct {
	adv rounds.Adversary
}

// NewSchedule returns the drop policy replaying adv.
func NewSchedule(adv rounds.Adversary) Schedule { return Schedule{adv: adv} }

// Deliver implements Policy. A malformed round graph — nil, or over
// another universe — delivers nothing: a live run asks the policy ahead
// of its own graph check (rounds.CheckGraph), which reports the graph.
func (s Schedule) Deliver(r, from int, to graph.NodeSet) {
	if g := s.adv.Graph(r); g != nil && g.N() == s.adv.N() && from < g.N() {
		to.UnionWith(g.OutRow(from))
	}
}

// FrameLoss returns a DropDatagram hook (see UDPOpts) that loses each
// round frame i.i.d. with probability p, deterministically from seed.
// All fragments of a frame share the verdict: a partially-arrived frame
// never completes reassembly anyway, so frame-level loss is what a
// receiver observes either way, and keeping the decision per-frame makes
// the realized heard-sets a pure function of (seed, round, link).
// Returns nil (no injected loss) when p <= 0.
func FrameLoss(p float64, seed int64) func(r, from, to, frag int) bool {
	if p <= 0 {
		return nil
	}
	return func(r, from, to, frag int) bool {
		h := mix64(uint64(seed) ^ uint64(r)*0x9e3779b97f4a7c15 ^ uint64(from)<<32 ^ uint64(to)<<16 ^ 0xd1b54a32d192ed03)
		return float64(h>>11)/(1<<53) < p
	}
}

// mix64 is the splitmix64 finalizer — the same mixer sim.CellSeed uses
// for per-cell determinism, here giving per-(round, link) determinism.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
