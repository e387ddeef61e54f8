// Package runtime executes the round model as a real distributed system:
// every process runs its algorithm end-to-end, whether a link delivers is
// decided by a pluggable transport (internal/transport), whose policy
// answers each sender's round with its row of receivers instead of a
// lock-step delivery loop, and what a delivered link carries depends on
// where it leads (below). It
// is the second, independent implementation of the executor contract in
// internal/rounds — the differential harness in this package (Diff)
// proves it decision-for-decision identical to the simulator, in the same
// spirit as the differential baselines in internal/baseline and the
// model-checker's brute-force cross-check in internal/check.
//
// # What a link carries
//
// A link between two processes on different mesh nodes carries encoded
// bytes, decoded once per receiving worker (liveWorker). A link inside one
// node (transport.Partition; every link of an in-proc run) never leaves
// memory, so once Gather reports it delivered the receiver takes the
// sender's Send(r) value itself, as in the lockstep executor — kept in a
// two-slot table, valid by the lifetime rule of rounds.Algorithm.Send and
// the phase barrier — and a sender with no receiver on another node
// encodes nothing: its Broadcast carries only a "delivered" mark. A
// transport that is not a mesh knows no co-location: every link is bytes.
//
// # Determinism
//
// A run is fully determined by (schedule, proposals, options): rounds
// are communication-closed, transitions are deterministic, and the
// transport's fault injection is a pure function of (round, link). Real
// concurrency — goroutine scheduling, TCP timing, a process sending late —
// can therefore change only wall-clock phase, never decisions. That is
// not assumed but enforced: Diff replays any schedule over a transport
// and compares every per-process decision, decision round, and skeleton
// measurement against sim.Execute on the same schedule and seed. The
// schedule itself is a pure read for the caller and every worker: a
// NewRunner run generates each round's graph once, when a process first
// reaches it; Diff and CrashReplay, which hand two executions the same
// schedule, materialize theirs (adversary.MaterializeRun) before either.
//
// # Who steps a process
//
// For the same reason, which goroutine applies a process's transition is
// unobservable, so the live executor is the lockstep loop on the lockstep
// executor's worker pool (rounds.Shards) with a different step: each
// round every worker takes its block of processes through send → gather
// → receive → transition, Run's caller being worker 0, and between rounds
// the caller alone runs the observers and the stop predicate on the
// quiescent state. The worker count is derived, never set, and the
// policy is no part of the rule:
//
//   - n, one process per worker, when a crash or stall plan is present
//     (a stall's sleep would delay a whole block) or the transport is
//     not one of internal/transport's meshes (transport.Partition says
//     nil);
//   - m, one per mesh node, on a mesh of m > 1 nodes: blocks are cut at
//     w*n/m as the mesh cuts its nodes, so the worker that steps a
//     node's processes makes the Broadcast that completes the node's
//     round, and that call ships it. Under a deadline the node's first
//     gather seals the round for all its receivers, so the node's
//     gathers in sequence cost one deadline, not one per receiver;
//   - on a single-node mesh, 1 — the caller steps every process inline:
//     no goroutine, no channel operation, and on the in-proc transport
//     no Gather ever parks — when rounds close by count and n <
//     inlineBelowN or there is one core; else n.
//
// Inside a block every round-r send precedes the first round-r gather,
// so a count-closed gather only waits on sends that do not wait on it;
// and a step that fails closes the transport before it returns, so
// blocks parked in Gather wake with ErrClosed and the pool cannot hang.
//
// # Pipelining
//
// Fixed-length runs (StopWhen == nil — benchmarks, load generators) are
// pipelined: a process writes its round-r+1 broadcast right after its
// round-r transition, BEFORE the round barrier, so when round r+1 starts
// every message is already deposited (or on the wire) and Gather does not
// wait out a fresh send burst. This is exact, not just safe: with no
// early-stop predicate, rounds 1..MaxRounds all execute, so the pipelined
// run performs precisely the Send calls and per-link drops the lockstep
// simulator does — only earlier in wall-clock — and the transport
// contract's bounded lookahead (one round past the lowest un-gathered
// round) licenses the head start.
// Runs with a StopWhen predicate are not pipelined: a speculative
// round-r+1 broadcast after a stop at round r would call Send
// (observable to metering wrappers) and consult the drop policy for a
// round the simulator never executes. A service session is one of these
// (its spec never sets RunToCompletion, so sim.Execute stops it once all
// have decided): it sends round r only after the round r-1 barrier and
// stop check, every process of a block before the block's first gather.
// Diff covers both paths.
package runtime

import (
	"cmp"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/transport"
)

// inlineBelowN is the n from which processes that need no clock of their
// own get a worker each anyway. Measured on the 2-core sandbox, in-proc,
// co-located links by value (BenchmarkLiveCrossover; DESIGN.md §4 has the
// table): inline beats one worker per process 2.4x at n = 8, 1.6x at
// n = 16, 1.14x at n = 24, and loses from n = 28 (0.95x; 0.8x at n = 32,
// 0.54x at n = 64); GOMAXPROCS blocks never win.
const inlineBelowN = 28

// Run executes cfg over the given transport. It enforces exactly the
// contract of rounds.RunSequential (same Config validation, same graph
// checks, same observer and stop semantics, both on Run's caller) and
// produces the identical Result for the identical inputs, provided the
// transport's drop policy replays cfg.Adversary (see NewRunner, which
// wires that up). codec must be the one of the family cfg.NewProcess
// builds (algo.Lookup(name).Codec); nil is an error, not a default. A
// panic in a process reaches Run's caller with its original value.
//
// Run owns the transport: it is closed before Run returns, on every
// path. cfg.Adversary is read concurrently by the caller and — via the
// transport policy — by every worker, so it must be safe for concurrent
// Graph calls: NewRunner makes any adversary so, adversary.MaterializeRun
// does for a caller with a transport of its own.
func Run(cfg rounds.Config, tr transport.Transport, codec algo.Codec) (*rounds.Result, error) {
	return runChaos(cfg, tr, codec, nil, nil)
}

// runChaos is Run with fault injection: plan schedules process crashes
// (site-exact, see CrashPlan), stall delays processes' sends without
// killing them. Both may be nil; with both nil this IS Run. A silent
// plan (Notify false) that crashes anyone is rejected on a transport
// that closes rounds by count only: nobody would ever notice the dead.
//
// Crashed processes freeze at their pre-crash state (they appear in the
// Result undecided or with their pre-crash decision, the paper's
// internally-correct crashed node), nothing steps them again, and — when
// cfg.StopWhen is set — the run additionally ends as soon as every
// surviving process has decided, since waiting on the dead is exactly
// the wedge this layer exists to remove. Fixed-length runs (StopWhen ==
// nil) still execute all MaxRounds with the survivors.
func runChaos(cfg rounds.Config, tr transport.Transport, codec algo.Codec, plan *CrashPlan, stall *StallPlan) (*rounds.Result, error) {
	defer tr.Close()
	n, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if tr.N() != n {
		return nil, fmt.Errorf("runtime: transport has %d endpoints, adversary has %d processes", tr.N(), n)
	}
	if err := plan.validate(n); err != nil {
		return nil, err
	}
	if err := stall.validate(n); err != nil {
		return nil, err
	}
	if codec == nil {
		// No family is the default here: guessing one would fail rounds
		// deep, on the first message of any other family.
		return nil, errors.New("runtime: nil codec")
	}
	node, byCount := transport.Partition(tr)
	if byCount && plan.crashes() > 0 && !plan.Notify {
		return nil, errors.New("runtime: silent crash plan on a transport that closes rounds by count only: nothing would notice the dead (set CrashPlan.Notify, or give the mesh a round deadline)")
	}
	workers := n
	switch {
	case plan != nil || stall != nil || node == nil:
	case node[n-1] > 0: // blocks cut at w*n/m coincide with the nodes
		workers = node[n-1] + 1
	case byCount && (n < inlineBelowN || goruntime.GOMAXPROCS(0) == 1):
		workers = 1
	}
	return runLive(cfg, n, workers, node, tr, codec, plan, stall)
}

// runLive is runChaos at a given worker count and node partition (nil:
// unknown, every link carries bytes), on validated inputs.
func runLive(cfg rounds.Config, n, workers int, node []int, tr transport.Transport, codec algo.Codec, plan *CrashPlan, stall *StallPlan) (*rounds.Result, error) {
	run := &liveRun{
		maxRounds: cfg.MaxRounds,
		// Exact only for fixed-length runs (package comment); a crash or
		// stall makes the next round's send burst locally unpredictable.
		pipelined: cfg.StopWhen == nil && plan == nil && stall == nil,
		tr:        tr,
		codec:     codec,
		node:      node,
		wire:      node == nil || slices.Max(node) > slices.Min(node),
		sent:      [2][]any{make([]any, n), make([]any, n)},
		procs:     make([]liveProc, n),
		workers:   make([]liveWorker, workers),
		plan:      plan,
		stall:     stall,
	}
	run.dm, _ = tr.(transport.DeadMarker)
	for w := range run.workers {
		run.workers[w].recv = make([]any, n)
	}
	algs := make([]rounds.Algorithm, n)
	for i := range algs {
		ep, err := tr.Endpoint(i)
		if err != nil {
			return nil, fmt.Errorf("runtime: p%d endpoint: %w", i+1, err)
		}
		algs[i] = cfg.NewProcess(i)
		algs[i].Init(i, n)
		run.procs[i] = liveProc{alg: algs[i], ep: ep}
	}
	pool := rounds.NewShards(n, workers, run.step)
	defer pool.Stop()
	phase := func(r int) error {
		pool.Phase(r)
		return run.err()
	}
	if run.pipelined {
		if err := phase(0); err != nil { // the round-1 sends prime the pipeline
			return nil, err
		}
	}

	res := &rounds.Result{Procs: algs}
	for r := 1; r <= cfg.MaxRounds; r++ {
		g := cfg.Adversary.Graph(r)
		if err := rounds.CheckGraph(g, n, r); err != nil {
			return nil, err
		}
		if plan != nil && plan.aliveEntering(r) == 0 {
			break // everyone has crashed; round r never happens
		}
		if err := phase(r); err != nil {
			return nil, err
		}
		// All round-r transitions are complete and every worker is idle:
		// the quiescent state observers and stop predicates are defined on.
		res.Rounds = r
		if cfg.Observer != nil {
			cfg.Observer.OnRound(r, g, algs)
		}
		if cfg.StopWhen != nil && (cfg.StopWhen(r, algs) || (plan != nil && plan.survivorsDecided(algs))) {
			res.Stopped = true
			break
		}
	}
	return res, nil
}

// liveRun is what the workers of one run share. Built once in runLive.
type liveRun struct {
	maxRounds int
	pipelined bool
	tr        transport.Transport
	codec     algo.Codec
	node      []int    // per process: its mesh node; nil when the transport is not a mesh
	wire      bool     // some link leaves its node (or may): senders encode
	sent      [2][]any // [r&1][sender]: its Send(r) value, read by its node's receivers
	procs     []liveProc
	workers   []liveWorker
	plan      *CrashPlan
	stall     *StallPlan
	dm        transport.DeadMarker // nil when the transport takes no death verdicts
}

// liveProc is one process and its port onto the network; during a phase
// only its block's worker touches it.
type liveProc struct {
	alg  rounds.Algorithm
	ep   transport.Endpoint
	dead bool // its planned crash has happened: nothing steps it again
}

// liveWorker is one worker's scratch, reused for every process of its
// block as rounds.RunSequential reuses one recv per worker. Whoever hears
// q in round r holds the bytes of q's one Send(r), so the worker decodes
// them once for its block: decoded[q] stays valid until its next decode
// of q, in phase r+1, after every Transition(r) of the block. Only this
// worker touches any of it, so nothing is locked.
type liveWorker struct {
	recv    []any
	frames  [][]byte
	sendBuf []byte
	dec     algo.Decoder // built by the block's first message from another node
	decoded []any        // [q]: q's message of this phase's round, once decoded
	err     error        // what ended its last step early
}

// err returns what ended the run early, if anything: the first failure
// that is not teardown noise, lowest block first. A transport closed
// under the run from outside (a watchdog) leaves only ErrClosed.
func (run *liveRun) err() error {
	var closed error
	for _, wk := range run.workers {
		if wk.err != nil && !errors.Is(wk.err, transport.ErrClosed) {
			return wk.err
		}
		closed = cmp.Or(closed, wk.err)
	}
	return closed
}

// step is one worker's share of round r: for the processes of its block,
// the round-r broadcasts (unless the previous step pipelined them), then
// gather-decode-transition and — when pipelined — the round-r+1
// broadcast, which is all of phase 0. A step that does not complete — an
// error, or a panic passing through — closes the transport on its way
// out, so the other blocks cannot stay parked in Gather.
func (run *liveRun) step(w, lo, hi, r int) {
	completed := false
	defer func() {
		if !completed {
			run.tr.Close()
		}
	}()
	wk := &run.workers[w]
	wk.err = run.stepBlock(wk, lo, hi, r)
	completed = wk.err == nil
}

func (run *liveRun) stepBlock(wk *liveWorker, lo, hi, r int) error {
	if !run.pipelined {
		for self := lo; self < hi; self++ {
			if !run.procs[self].dead {
				if err := run.begin(wk, self, r); err != nil {
					return abortErr(self, r, err)
				}
			}
		}
	}
	clear(wk.decoded) // an earlier round's decodes are stale
	for self := lo; self < hi; self++ {
		p := &run.procs[self]
		if p.dead {
			continue
		}
		if r > 0 {
			got, err := p.ep.Gather(r, wk.frames)
			if err != nil {
				return abortErr(self, r, err)
			}
			wk.frames = got
			for q := range got {
				switch {
				case got[q] == nil: // not delivered: the transport's verdict alone
					wk.recv[q] = nil
				case run.node != nil && run.node[q] == run.node[self]:
					// Written before q's Broadcast(r), intact until q's
					// Transition(r+1) (rounds.Algorithm.Send): a phase away.
					wk.recv[q] = run.sent[r&1][q]
				default:
					if wk.dec == nil {
						wk.dec, wk.decoded = run.codec.NewDecoder(len(got)), make([]any, len(got))
					}
					if wk.decoded[q] == nil {
						if wk.decoded[q], err = wk.dec.Decode(q, got[q]); err != nil {
							return abortErr(self, r, fmt.Errorf("decoding p%d's message: %w", q+1, err))
						}
					}
					wk.recv[q] = wk.decoded[q]
				}
			}
			p.alg.Transition(r, wk.recv)
		}
		// Pipelined send, before the round barrier: the next round's
		// frames are in flight while the caller runs the observers. The
		// last round sends nothing: the schedule ends at MaxRounds.
		if run.pipelined && r < run.maxRounds {
			if err := run.send(wk, self, r+1); err != nil {
				return abortErr(self, r+1, err)
			}
		}
	}
	return nil
}

// begin is a live process's round-r broadcast on a run that is not
// pipelined, chaos included: a stall sleeps before it; the planned crash
// happens here. Before-send dies with the round-r message unsent;
// mid-send broadcasts through the crash-cut policy (only the receivers
// in Partial get it); after-send broadcasts in full. Then the process is
// gone — no gather, no transition, no later round — and, when the plan
// says so, its death announced.
func (run *liveRun) begin(wk *liveWorker, self, r int) error {
	if plan := run.plan; plan != nil && plan.Round[self] == r {
		run.procs[self].dead = true
		from := r
		if plan.Site[self] != CrashBeforeSend {
			if err := run.send(wk, self, r); err != nil {
				return err
			}
			from = r + 1 // the round-r frame was really sent; only later rounds are dead
		}
		if plan.Notify && run.dm != nil {
			run.dm.MarkDead(self, from)
		}
		return nil
	}
	if d := run.stall.delay(self, r); d > 0 {
		time.Sleep(d)
	}
	return run.send(wk, self, r)
}

// delivered is all a sender with no receiver on another node broadcasts:
// the transport still decides every link, the message stays where it is.
// One byte, not none: Gather reports a delivery as a non-nil payload.
var delivered = []byte{1}

// send broadcasts self's round-r message: kept by value for the
// receivers of its own node, encoded into the worker's buffer only if
// some link leaves the node (Broadcast copies it before returning).
func (run *liveRun) send(wk *liveWorker, self, r int) (err error) {
	p := &run.procs[self]
	msg := p.alg.Send(r)
	run.sent[r&1][self] = msg
	if !run.wire {
		return p.ep.Broadcast(r, delivered)
	}
	if wk.sendBuf, err = run.codec.Encode(wk.sendBuf[:0], msg); err != nil {
		return err
	}
	return p.ep.Broadcast(r, wk.sendBuf)
}

// abortErr keeps teardown noise out of error reports: a transport closed
// under a process (because the run is ending) is not that process's
// failure.
func abortErr(self, r int, err error) error {
	if errors.Is(err, transport.ErrClosed) {
		return err
	}
	return fmt.Errorf("runtime: p%d round %d: %w", self+1, r, err)
}

// RunnerOpts is the one description of a live run — which mesh, grouped
// how, with which faults — that NewRunner turns into a transport and a
// run; Diff, CrashReplay and LossReplay take the same value.
type RunnerOpts struct {
	// Kind selects the transport: "inproc" (default), "tcp", or "udp".
	Kind string
	// Nodes groups the n processes onto this many mesh nodes for the
	// socket transports (co-located processes share sockets and their
	// rounds coalesce into one frame per node pair). 0 or >= n means one
	// node per process — the fully distributed shape; negative is an error.
	Nodes int
	// UDP configures the datagram mesh when Kind is "udp" (round
	// deadline, grace, socket buffers, injected datagram loss).
	// The zero value takes the transport's defaults.
	UDP transport.UDPOpts
	// Loss, in [0, 1], when positive and Kind is "udp", loses each round
	// frame on the wire i.i.d. with this probability (deterministically
	// from LossSeed) — real absence-style loss, composed with any
	// UDP.DropDatagram hook and with the schedule's Policy drops. The
	// algorithm tolerates it by design; the loss-replay harness
	// (LossReplay) verifies the realized run still satisfies the paper's
	// bounds.
	Loss     float64
	LossSeed int64

	// Algorithm names the registered family whose Codec carries the
	// messages; "" resolves to the registry default (kset).
	Algorithm string

	// Crash, when non-nil, injects process crashes (see CrashPlan): the
	// planned processes die at their planned rounds and sites, their
	// sends are cut accordingly in the transport policy, and the run
	// continues with the survivors (runChaos).
	Crash *CrashPlan
	// Stall, when non-nil, delays processes' sends without killing them
	// (see StallPlan) — the stimulus for deadline closures and stall
	// streaks that end in recovery rather than a death verdict.
	Stall *StallPlan
	// TCP tunes the stream mesh when Kind is "tcp" (chaos knobs: deadline
	// closure, stall detection; a broken stream is then a lost link). The
	// zero value is the classic reliable mesh.
	TCP transport.TCPOpts
	// Meter, when non-nil, records the realized heard-set of every
	// gather on any transport kind (overriding UDP.Meter).
	Meter *transport.HeardMeter
	// OnTransport, when non-nil, is called with each run's transport
	// right after construction — the hook the agreement service uses to
	// Close a wedged session's transport.
	OnTransport func(transport.Transport)
}

// meshNodes resolves the node count for an n-process socket mesh.
func (o RunnerOpts) meshNodes(n int) int {
	if o.Nodes == 0 || o.Nodes > n {
		return n
	}
	return o.Nodes
}

// schedule makes a generator adversary the pure, concurrent read Run
// needs without generating a round no process reaches: the caller and
// every worker (through the transport policy) share one Graph call per
// round, made on first demand. A run that stops early — a service session
// decides in about a sixth of its MaxRounds — pays for the rounds it ran.
type schedule struct {
	rounds.Adversary                                 // the generator
	mu               sync.Mutex                      // serialises it
	graphs           []atomic.Pointer[graph.Digraph] // [r]: round r's graph, once generated
}

// onDemand wraps adv in a schedule for rounds 1..upTo; a *adversary.Run
// is a pure read already and passes through.
func onDemand(adv rounds.Adversary, upTo int) rounds.Adversary {
	if run, ok := adv.(*adversary.Run); ok {
		return run
	}
	return &schedule{Adversary: adv, graphs: make([]atomic.Pointer[graph.Digraph], upTo+1)}
}

// Graph implements rounds.Adversary for the rounds of the run.
func (s *schedule) Graph(r int) *graph.Digraph {
	if g := s.graphs[r].Load(); g != nil {
		return g
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.graphs[r].Load()
	if g == nil {
		g = s.Adversary.Graph(r)
		s.graphs[r].Store(g)
	}
	return g
}

// NewRunner adapts the distributed runtime to the executor signature of
// internal/rounds, for sim.Spec.Runner: the returned function builds a
// fresh transport whose drop policy replays cfg.Adversary (generated on
// demand, see schedule), runs cfg over it, and tears the transport
// down. Each call of the returned runner is an independent run, and
// calls may overlap: the runner only reads opts.
func NewRunner(opts RunnerOpts) func(rounds.Config) (*rounds.Result, error) {
	return func(cfg rounds.Config) (*rounds.Result, error) {
		if _, err := cfg.Validate(); err != nil {
			return nil, err
		}
		alg, err := algo.Lookup(opts.Algorithm)
		if err != nil {
			return nil, err
		}
		switch {
		case opts.Nodes < 0:
			return nil, fmt.Errorf("runtime: Nodes = %d out of range: want >= 0 (0: one node per process)", opts.Nodes)
		case !(opts.Loss >= 0 && opts.Loss <= 1): // NaN too
			return nil, fmt.Errorf("runtime: Loss = %g out of range [0,1]", opts.Loss)
		case opts.Loss > 0 && opts.Kind != "udp":
			return nil, fmt.Errorf("runtime: Loss = %g is wire loss on the datagram mesh; transport kind %q has none to lose", opts.Loss, opts.Kind)
		}
		adv := onDemand(cfg.Adversary, cfg.MaxRounds)
		cfg.Adversary = adv
		var pol transport.Policy = transport.NewSchedule(adv)
		if opts.Crash != nil {
			// The crash cut composes under the schedule: a crashing
			// process's round-r sends are restricted to its site's
			// receivers before the schedule's own drops apply.
			pol = crashCut{inner: pol, plan: opts.Crash}
		}
		var tr transport.Transport
		switch opts.Kind {
		case "", "inproc":
			tr = transport.NewInProc(adv.N(), pol)
		case "tcp":
			tr, err = transport.NewTCPMeshLoopbackOpts(adv.N(), opts.meshNodes(adv.N()), pol, opts.TCP)
		case "udp":
			u := opts.UDP
			if injected := transport.FrameLoss(opts.Loss, opts.LossSeed); injected != nil {
				inner := u.DropDatagram
				u.DropDatagram = func(r, from, to, frag int) bool {
					return injected(r, from, to, frag) || (inner != nil && inner(r, from, to, frag))
				}
			}
			tr, err = transport.NewUDPMeshLoopback(adv.N(), opts.meshNodes(adv.N()), pol, u)
		default:
			err = fmt.Errorf("runtime: unknown transport kind %q", opts.Kind)
		}
		if err != nil {
			return nil, err
		}
		if opts.Meter != nil {
			if err := transport.Metered(tr, opts.Meter); err != nil {
				tr.Close()
				return nil, err
			}
		}
		if opts.OnTransport != nil {
			opts.OnTransport(tr)
		}
		return runChaos(cfg, tr, alg.Codec, opts.Crash, opts.Stall)
	}
}
