// Package rounds implements the paper's computing model (Section II): an
// infinite sequence of communication-closed rounds in which every process
// broadcasts a message computed by its sending function and then applies
// its transition function to the vector of messages that arrived. Which
// messages arrive in round r is exactly the edge set of the round-r
// communication graph G^r, supplied by an Adversary.
//
// A run is completely determined by the initial states of the processes
// and the sequence of communication graphs. Two independent executors
// step that definition: RunSequential here (lockstep: one round at a
// time, coordinated by the calling goroutine, which from a measured
// size up shares each round's transitions with the idle cores) and the
// live runtime (internal/runtime: the same loop and worker pool, Shards,
// stepping real sends and gathers over a transport). They therefore
// produce identical runs for identical inputs, which runtime.Diff verifies.
package rounds

import (
	"errors"
	"fmt"

	"kset/internal/graph"
)

// Algorithm is the paper's pair of sending and transition functions,
// instantiated once per process. Implementations must be deterministic:
// the executor may run the Init calls, and the transitions of one round,
// in any order or concurrently — both executors do — but each process
// only ever sees its own state plus received messages.
//
// Messages must be treated as immutable by receivers: a broadcast message
// is shared by every receiver in the round.
type Algorithm interface {
	// Init is called exactly once before round 1 with the process's own
	// id (0-based) and the total number of processes n.
	Init(self, n int)

	// Send returns the message this process broadcasts in round r
	// (r >= 1), based on its state at the beginning of round r. The
	// returned message must be non-nil. Both executors hand receivers the
	// returned value itself (the live runtime: those on the sender's own
	// mesh node), and the live one lets a sender run a phase ahead of its
	// readers, so the result must stay intact through the sender's own
	// Transition(r) and Send(r+1), until its Transition(r+1) begins;
	// from then on it may be rewritten. Two buffers alternating on r&1,
	// with Transition building the next state beside the one that was
	// sent, satisfy this; algo.Register refuses a family that does not.
	Send(r int) any

	// Transition consumes the messages received in round r and moves the
	// process to its state at the beginning of round r+1. recv has length
	// n; recv[q] is q's round-r message if the edge (q -> self) is in
	// G^r, and nil otherwise. Because round graphs always contain all
	// self-loops, recv[self] is always the process's own message.
	//
	// The recv slice (and the messages in it) are only valid for the
	// duration of the call: executors reuse the buffer for later rounds,
	// and senders reuse message storage. Implementations that need
	// round-r data afterwards must copy it before returning.
	Transition(r int, recv []any)
}

// Decider is implemented by algorithms that solve an agreement problem.
// The trace checker uses it to verify validity, agreement, termination,
// and irrevocability.
type Decider interface {
	// Proposal returns the process's initial proposal value.
	Proposal() int64
	// Decided reports whether the process has irrevocably decided.
	Decided() bool
	// Decision returns the decided value and the round in which the
	// decision was taken; it must only be called when Decided is true.
	Decision() (value int64, round int)
}

// Adversary supplies the per-round communication graphs of a run. The
// paper names systems by communication predicates quantifying over all
// runs; an Adversary is one concrete run generator.
type Adversary interface {
	// N returns the number of processes.
	N() int
	// Graph returns the communication graph of round r (r >= 1). The
	// graph must contain all n nodes and every self-loop, and must be
	// treated as immutable by callers. Implementations may return the
	// same *graph.Digraph for multiple rounds.
	Graph(r int) *graph.Digraph
}

// Stabilizer is an optional Adversary refinement for runs whose graph
// sequence becomes constant: Graph(r) is the same for all
// r >= StabilizationRound. Skeleton trackers use it to compute the stable
// skeleton G^∩∞ in finite time.
type Stabilizer interface {
	// StabilizationRound returns the first round from which the round
	// graphs (and hence the skeleton) no longer change.
	StabilizationRound() int
}

// Observer is notified after every executed round. Observers run on the
// coordinator and may inspect, but must not mutate, the graph or the
// processes.
type Observer interface {
	// OnRound is called after all round-r transitions completed. g is
	// the round-r communication graph.
	OnRound(r int, g *graph.Digraph, procs []Algorithm)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(r int, g *graph.Digraph, procs []Algorithm)

// OnRound implements Observer.
func (f ObserverFunc) OnRound(r int, g *graph.Digraph, procs []Algorithm) { f(r, g, procs) }

// MultiObserver fans a round notification out to several observers in
// order.
type MultiObserver []Observer

// OnRound implements Observer.
func (m MultiObserver) OnRound(r int, g *graph.Digraph, procs []Algorithm) {
	for _, o := range m {
		o.OnRound(r, g, procs)
	}
}

// Config describes one run.
type Config struct {
	// Adversary generates the round graphs; required.
	Adversary Adversary
	// NewProcess builds the algorithm instance for process self;
	// required. Init is called by the executor, not by NewProcess.
	NewProcess func(self int) Algorithm
	// MaxRounds bounds the execution: a run of the model is infinite, a
	// simulation is not. Required, >= 1.
	MaxRounds int
	// StopWhen, if non-nil, is evaluated after each round; returning
	// true ends the run early. Typical use: all processes decided.
	StopWhen func(r int, procs []Algorithm) bool
	// Observer, if non-nil, is notified after every round.
	Observer Observer
}

// Result reports how a run ended.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Stopped reports whether StopWhen ended the run before MaxRounds.
	Stopped bool
	// Procs are the process instances in id order, in their final state.
	Procs []Algorithm
}

// AllDecided is a StopWhen helper: true when every process implements
// Decider and has decided.
func AllDecided(_ int, procs []Algorithm) bool {
	for _, p := range procs {
		d, ok := p.(Decider)
		if !ok || !d.Decided() {
			return false
		}
	}
	return true
}

// Validate checks the Config's structural requirements and returns the
// number of processes. Exported for the distributed runtime
// (internal/runtime), which must enforce exactly the same contract as
// RunSequential.
func (c *Config) Validate() (int, error) {
	if c.Adversary == nil {
		return 0, errors.New("rounds: Config.Adversary is nil")
	}
	if c.NewProcess == nil {
		return 0, errors.New("rounds: Config.NewProcess is nil")
	}
	if c.MaxRounds < 1 {
		return 0, fmt.Errorf("rounds: MaxRounds = %d, need >= 1", c.MaxRounds)
	}
	n := c.Adversary.N()
	if n < 1 {
		return 0, fmt.Errorf("rounds: adversary reports n = %d", n)
	}
	return n, nil
}

// CheckGraph enforces the model's structural requirements on a round
// graph: correct universe, all nodes present, all self-loops (every
// process hears itself; cf. Figure 1's caption). Exported for the
// distributed runtime (internal/runtime).
func CheckGraph(g *graph.Digraph, n, r int) error {
	if g == nil {
		return fmt.Errorf("rounds: adversary returned nil graph for round %d", r)
	}
	if g.N() != n {
		return fmt.Errorf("rounds: round %d graph universe %d, want %d", r, g.N(), n)
	}
	for v := 0; v < n; v++ {
		if !g.HasNode(v) {
			return fmt.Errorf("rounds: round %d graph missing node p%d", r, v+1)
		}
		if !g.HasEdge(v, v) {
			return fmt.Errorf("rounds: round %d graph missing self-loop of p%d", r, v+1)
		}
	}
	return nil
}
