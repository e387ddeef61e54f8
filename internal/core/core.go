// Package core implements the paper's contribution: Algorithm 1, which
// approximates the stable skeleton graph of a run and solves k-set
// agreement in every run admissible in the system Psrcs(k).
//
// Each process maintains
//
//   - PTp — the set of processes perceived as perpetually timely (line 9),
//   - xp  — the estimated decision value (line 27: minimum over timely
//     neighbors' estimates),
//   - Gp  — a round-labeled approximation of the stable skeleton, rebuilt
//     every round from the graphs received from timely neighbors
//     (lines 15-25), and
//   - decidedp — set when p decides, either because its approximation
//     became strongly connected in some round r >= n (line 28), or
//     because a timely neighbor sent a decide message (lines 10-13).
//
// The algorithm never needs to know k: the communication predicate of the
// run determines how many distinct values survive (Theorem 1 bounds the
// root components by k; Lemma 15 maps decision values onto them).
package core

import (
	"fmt"

	"kset/internal/graph"
	"kset/internal/rounds"
)

// Kind distinguishes the two message forms of Algorithm 1's sending
// function (lines 5-8).
type Kind uint8

const (
	// Prop is the (prop, x, G) message of undecided processes.
	Prop Kind = iota
	// Decide is the (decide, x, G) message broadcast forever after
	// deciding.
	Decide
)

func (k Kind) String() string {
	if k == Decide {
		return "decide"
	}
	return "prop"
}

// Message is the round message (tag, xp, Gp). Senders reuse message and
// graph storage across rounds (Process double-buffers both), so receivers
// must treat a message as immutable and must not retain it — or its graph
// — beyond the round it was delivered in; copy what must outlive the
// round. Both executors guarantee a sender never rewrites storage before
// every round-r reader has finished its round-r transition, given the
// lifetime rule of rounds.Algorithm.Send: a round-r message stays intact
// until the sender's Transition(r+1) begins (two buffers on r&1, and
// Transition rebuilds G beside the graph that was sent).
type Message struct {
	Kind Kind
	X    int64
	G    *graph.Labeled
}

// Via reports how a process decided.
type Via uint8

const (
	// ViaNone means the process has not decided.
	ViaNone Via = iota
	// ViaConnectivity is a line-29 decision: the approximation graph
	// became strongly connected in a round r >= n.
	ViaConnectivity
	// ViaMessage is a line-12 decision: a timely neighbor's decide
	// message was adopted.
	ViaMessage
)

func (v Via) String() string {
	switch v {
	case ViaConnectivity:
		return "connectivity"
	case ViaMessage:
		return "message"
	default:
		return "none"
	}
}

// Options collects the interpretation knobs documented in DESIGN.md §2.
// The zero value is the paper-faithful configuration.
type Options struct {
	// MergeOwnGraph additionally merges the process's own previous
	// approximation graph in lines 19-23, i.e. treats the message a
	// process "sends to itself" as a merge input. Replaying Figure 1
	// shows the paper does not do this (stale information must travel as
	// a one-round wave); the option exists as an ablation and changes no
	// correctness property, only how long stale edges linger.
	MergeOwnGraph bool
	// PurgeWindow overrides the age bound of line 24: edges with label
	// <= r - PurgeWindow are discarded. 0 means the paper's n. Values
	// below n-1 break Lemma 4 (legitimate information up to n-1 hops away
	// is purged in transit) and are rejected by Init.
	PurgeWindow int
	// ConservativeDecide raises line 28's guard from r >= n to
	// r >= 2n-1. The published guard is unsound: in runs whose skeleton
	// stabilizes after round 1, approximation graphs at rounds in
	// [n, r_ST+n-2] can be strongly connected through stale
	// pre-stabilization edges that the purge has not yet removed, letting
	// processes decide extra values and exceed the k-agreement bound
	// (adversary.ConsensusViolation is a deterministic 4-process witness
	// under Psrcs(1)). With r >= 2n-1, C^(r-n+1) ⊆ C^n, so the paper's
	// own Lemma 15 argument (via Lemma 14 and Lemma 12) goes through and
	// k-agreement is restored; termination degrades only by a constant
	// factor. See DESIGN.md §2 and EXPERIMENTS.md §E10.
	ConservativeDecide bool
}

// Process is one Algorithm 1 process. Create instances with New or
// NewFactory; the zero value is unusable.
type Process struct {
	self, n  int
	opts     Options
	purge    int
	proposal int64

	pt      graph.NodeSet  // PTp (line 1)
	x       int64          // xp (line 2)
	g       *graph.Labeled // Gp (line 3), current buffer
	decided bool           // decidedp (line 4)
	via     Via
	decideR int

	// Steady-state scratch: Transition and Send reuse this storage every
	// round instead of allocating, which keeps the simulator's hot path
	// garbage-free (see DESIGN.md §4).
	next  *graph.Labeled     // double buffer: the round-r rebuild target
	heard graph.NodeSet      // line-9 sender set
	reach graph.ReachScratch // prune (line 25) + connectivity (line 28)
	msgs  [2]Message         // ping-pong broadcast buffers for Send
}

var _ rounds.Algorithm = (*Process)(nil)
var _ rounds.Decider = (*Process)(nil)

// New returns a process proposing the given value with paper-faithful
// options.
func New(proposal int64) *Process { return NewWithOptions(proposal, Options{}) }

// NewWithOptions returns a process proposing the given value.
func NewWithOptions(proposal int64, opts Options) *Process {
	return &Process{proposal: proposal, opts: opts}
}

// NewFactory adapts a proposal vector to the executor's factory callback:
// process i proposes proposals[i].
func NewFactory(proposals []int64, opts Options) func(self int) rounds.Algorithm {
	return func(self int) rounds.Algorithm {
		return NewWithOptions(proposals[self], opts)
	}
}

// Init implements rounds.Algorithm (lines 1-4 of Algorithm 1).
func (p *Process) Init(self, n int) {
	p.self = self
	p.n = n
	p.purge = p.opts.PurgeWindow
	if p.purge == 0 {
		p.purge = n
	}
	if p.purge < n-1 {
		panic(fmt.Sprintf("core: purge window %d < n-1 = %d breaks Lemma 4", p.purge, n-1))
	}
	p.pt = graph.FullNodeSet(n) // PTp := Π
	p.x = p.proposal            // xp := vp
	p.g = graph.NewLabeled(n)   // Gp := ⟨{p}, ∅⟩
	p.g.AddNode(self)
	p.next = graph.NewLabeled(n)
	p.heard = graph.NewNodeSet(n)
	p.reach = graph.ReachScratch{}
	p.msgs = [2]Message{}
	p.decided = false
	p.via = ViaNone
}

// Send implements rounds.Algorithm (lines 5-8). It returns a *Message
// drawn from a two-buffer ping-pong (round r uses buffer r mod 2), so the
// per-round broadcast boxes a pointer instead of copying the message into
// a fresh interface allocation. Reusing buffer r mod 2 is safe in both
// executors: it was last exposed to readers in round r-2, and every
// round-(r-2) transition completes before any process sends for round r
// — the live runtime's pipelined Send(r) comes right after this process's
// own Transition(r-1), a phase barrier after the last round-(r-2) reader.
func (p *Process) Send(r int) any {
	m := &p.msgs[r&1]
	m.Kind = Prop
	if p.decided {
		m.Kind = Decide
	}
	m.X = p.x
	m.G = p.g
	return m
}

// Transition implements rounds.Algorithm (lines 9-30). recv entries are
// *Message values (or nil for dropped edges). The rebuild of lines 14-25
// writes into the spare half of a double buffer and swaps, so the graph
// broadcast in round r stays intact for its readers while round r+1 is
// computed; with the persistent scratch state this makes steady-state
// transitions allocation-free (pinned by TestTransitionAllocsPerRun).
func (p *Process) Transition(r int, recv []any) {
	// Line 9: update PTp — intersect with this round's senders.
	p.heard.Clear()
	for q, m := range recv {
		if m != nil {
			p.heard.Add(q)
		}
	}
	p.pt.IntersectWith(p.heard)
	if !p.pt.Has(p.self) {
		panic("core: process lost itself from PT (model requires self-loops)")
	}

	// Lines 10-13: adopt a decide message from a timely neighbor. If
	// several arrive, adopt the smallest value (any choice is safe; the
	// adopted value is itself a decision value).
	if !p.decided {
		adopted := false
		var best int64
		p.pt.ForEach(func(q int) {
			m := recv[q].(*Message)
			if m.Kind != Decide {
				return
			}
			if !adopted || m.X < best {
				adopted, best = true, m.X
			}
		})
		if adopted {
			p.x = best
			p.decided = true
			p.via = ViaMessage
			p.decideR = r
		}
	}

	// Lines 14-25: rebuild the approximation graph into the spare buffer
	// (never into p.g — that graph is still being read by this round's
	// receivers), then swap.
	ng := p.next
	ng.Reset()
	ng.AddNode(p.self) // line 15: Gp := ⟨{p}, ∅⟩
	p.pt.ForEach(func(q int) {
		ng.MergeEdge(q, p.self, r) // line 17: (q -r-> p)
		if q == p.self && !p.opts.MergeOwnGraph {
			// Figure-faithful semantics: the process's own previous
			// graph is not a merge input; its content reaches p only
			// through timely neighbors.
			return
		}
		// Lines 18-23: Vp ∪= Vq and per-edge max-merge, as one
		// matrix-level pass.
		ng.MergeFrom(recv[q].(*Message).G)
	})
	ng.PurgeOlderThan(r - p.purge)                 // line 24
	ng.PruneUnreachableToInPlace(p.self, &p.reach) // line 25
	p.g, p.next = ng, p.g

	// Lines 26-30: update the estimate and try to decide.
	if !p.decided {
		first := true
		p.pt.ForEach(func(q int) { // line 27: xp := min over timely senders
			v := recv[q].(*Message).X
			if first || v < p.x {
				p.x = v
			}
			first = false
		})
		floor := p.n // line 28's published guard: r ≥ n
		if p.opts.ConservativeDecide {
			floor = 2*p.n - 1 // repaired guard, see Options.ConservativeDecide
		}
		if r >= floor && p.g.StronglyConnectedInto(&p.reach) {
			p.decided = true // lines 29-30
			p.via = ViaConnectivity
			p.decideR = r
		}
	}
}

// Proposal implements rounds.Decider.
func (p *Process) Proposal() int64 { return p.proposal }

// Decided implements rounds.Decider.
func (p *Process) Decided() bool { return p.decided }

// Decision implements rounds.Decider; it panics if the process has not
// decided (decisions are irrevocable once taken).
func (p *Process) Decision() (int64, int) {
	if !p.decided {
		panic("core: Decision before deciding")
	}
	return p.x, p.decideR
}

// DecidedVia reports which rule produced the decision.
func (p *Process) DecidedVia() Via { return p.via }

// Estimate returns the current estimated decision value xp.
func (p *Process) Estimate() int64 { return p.x }

// PT returns a copy of the current timely neighborhood PTp.
func (p *Process) PT() graph.NodeSet { return p.pt.Clone() }

// Approx returns a copy of the current approximation graph Gp.
func (p *Process) Approx() *graph.Labeled { return p.g.Clone() }

// PTView returns the current timely neighborhood PTp without copying.
// The returned set aliases live process state: it is valid only until the
// process's next Transition and must be treated as read-only. It exists
// for observer-path invariant checkers (internal/check), which inspect
// every process every round and must not add allocations to the hot path.
func (p *Process) PTView() graph.NodeSet { return p.pt }

// ApproxView returns the current approximation graph Gp without copying.
// Same aliasing contract as PTView: read-only, valid only until the next
// Transition (the graph is one half of a double buffer whose spare half
// is rewritten every round).
func (p *Process) ApproxView() *graph.Labeled { return p.g }

// PurgeWindow returns the age bound of line 24 in effect for this
// process: edges with label <= r - PurgeWindow are discarded.
func (p *Process) PurgeWindow() int { return p.purge }

// DecisionFloor returns the earliest round in which the line-28
// connectivity decision may fire under the configured options: n for the
// paper's published guard, 2n-1 for the repaired conservative one.
func (p *Process) DecisionFloor() int {
	if p.opts.ConservativeDecide {
		return 2*p.n - 1
	}
	return p.n
}

// Self returns the process id.
func (p *Process) Self() int { return p.self }
