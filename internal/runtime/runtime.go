// Package runtime executes the round model as a real distributed system:
// one goroutine per process running its algorithm end-to-end, messages
// crossing a pluggable transport (internal/transport) as encoded bytes,
// and per-link drops/delays injected by the transport's policy instead
// of a lock-step delivery loop. It is the second, independent
// implementation of the executor contract in internal/rounds — the
// differential harness in this package (Diff) proves it
// decision-for-decision identical to the simulator, in the same spirit
// as the differential baselines in internal/baseline and the
// model-checker's brute-force cross-check in internal/check.
//
// # Determinism
//
// A run is fully determined by (schedule, proposals, options): rounds
// are communication-closed, transitions are deterministic, and the
// transport's fault injection is a pure function of (round, link). Real
// concurrency — goroutine scheduling, TCP timing, jittered link delays —
// can therefore change only wall-clock phase, never decisions. That is
// not assumed but enforced: Diff replays any schedule over a transport
// and compares every per-process decision, decision round, and skeleton
// measurement against sim.Execute on the same schedule and seed.
//
// # Control plane and pipelining
//
// Data-plane messages (the algorithm's (tag, x, G) broadcasts) travel
// over the transport. Round pacing is a thin control plane on the
// runner: after its round-r transition, each process reports to the
// controller, which runs the observers and the stop predicate against
// the quiescent round-r state and releases round r+1 — or ends the run.
//
// Fixed-length runs (StopWhen == nil — benchmarks, load generators,
// service sessions) are pipelined: a process writes its round-r+1
// broadcast immediately after its round-r transition, BEFORE reporting
// to the controller, so by the time the barrier releases round r+1
// every process's message is already deposited (or on the wire) and
// Gather completes without waiting out a fresh send burst. This is
// exact, not just safe: with no early-stop predicate, rounds 1..
// MaxRounds all execute, so the pipelined run performs precisely the
// Send calls and per-link drops the lockstep simulator does — only
// earlier in wall-clock — and the transport contract's bounded
// lookahead (one round past the lowest un-gathered round) licenses the
// head start. Runs with a StopWhen predicate are not pipelined: the
// controller's stop decision is not locally predictable, so a
// speculative round-r+1 broadcast after a stop at round r would call
// Send (observable to metering wrappers) and consult the drop policy
// for a round the simulator never executes. The differential harness
// covers both paths.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/rounds"
	"kset/internal/transport"
)

// report is one process's round-completion message to the controller.
type report struct {
	self    int
	round   int
	crashed bool // the process executed its planned crash in this round
	err     error
}

// Run executes cfg with one goroutine per process over the given
// transport. It enforces exactly the contract of rounds.RunSequential
// (same Config validation, same graph checks, same observer and stop
// semantics) and produces the identical Result for the identical
// inputs, provided the transport's drop policy replays cfg.Adversary
// (see NewRunner, which wires that up). codec must be the one of the
// family cfg.NewProcess builds (algo.Lookup(name).Codec); nil is an
// error, not a default.
//
// Run owns the transport: it is closed before Run returns, on every
// path. cfg.Adversary is read concurrently by the controller and — via
// the transport policy — by every process goroutine, so it must be safe
// for concurrent Graph calls (adversary.MaterializeRun makes any
// adversary so).
func Run(cfg rounds.Config, tr transport.Transport, codec Codec) (*rounds.Result, error) {
	return RunChaos(cfg, tr, codec, nil, nil)
}

// RunChaos is Run with fault injection: plan schedules process crashes
// (site-exact, see CrashPlan), stall delays processes' sends without
// killing them. Both may be nil; with both nil this IS Run.
//
// Crashed processes freeze at their pre-crash state (they appear in the
// Result undecided or with their pre-crash decision, the paper's
// internally-correct crashed node), the controller stops expecting their
// reports, and — when cfg.StopWhen is set — the run additionally ends as
// soon as every surviving process has decided, since waiting on the dead
// is exactly the wedge this layer exists to remove. Fixed-length runs
// (StopWhen == nil) still execute all MaxRounds with the survivors.
func RunChaos(cfg rounds.Config, tr transport.Transport, codec Codec, plan *CrashPlan, stall *StallPlan) (*rounds.Result, error) {
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

	procs := make([]rounds.Algorithm, n)
	for i := 0; i < n; i++ {
		procs[i] = cfg.NewProcess(i)
		procs[i].Init(i, n)
	}

	var (
		reports = make(chan report, n)
		conts   = make([]chan bool, n)
		stop    = make(chan struct{})
	)
	run := &liveRun{
		n:         n,
		maxRounds: cfg.MaxRounds,
		// Pipelining is exact only for fixed-length runs; see the package
		// comment. Chaos runs are never pipelined: a crash or stall makes
		// the next round's send burst locally unpredictable.
		pipelined: cfg.StopWhen == nil && plan == nil && stall == nil,
		tr:        tr,
		codec:     codec,
		share:     newDecodeShare(n),
		reports:   reports,
		stop:      stop,
	}
	dm, _ := tr.(transport.DeadMarker)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		conts[i] = make(chan bool, 1)
		go func(self int) {
			defer wg.Done()
			run.runProcess(self, procs[self], conts[self], newProcChaos(self, plan, stall, dm))
		}(i)
	}

	res := &rounds.Result{Procs: procs}
	var runErr error
loop:
	for r := 1; r <= cfg.MaxRounds; r++ {
		g := cfg.Adversary.Graph(r)
		if err := rounds.CheckGraph(g, n, r); err != nil {
			runErr = err
			break
		}
		expect := n
		if plan != nil {
			expect = plan.aliveEntering(r)
			if expect == 0 {
				break // everyone has crashed; round r never happens
			}
		}
		for i := 0; i < expect; i++ {
			rep := <-reports
			if rep.err != nil {
				runErr = rep.err
				break loop
			}
			if rep.round != r {
				runErr = fmt.Errorf("runtime: p%d reported round %d during round %d", rep.self+1, rep.round, r)
				break loop
			}
			if rep.crashed != (plan != nil && plan.Round[rep.self] == r) {
				runErr = fmt.Errorf("runtime: p%d crash report in round %d disagrees with the plan", rep.self+1, r)
				break loop
			}
		}
		// All round-r transitions are complete and every live process is
		// parked awaiting release: the quiescent state observers and
		// stop predicates are defined on.
		res.Rounds = r
		if cfg.Observer != nil {
			cfg.Observer.OnRound(r, g, procs)
		}
		stopNow := r == cfg.MaxRounds
		if cfg.StopWhen != nil {
			if cfg.StopWhen(r, procs) || (plan != nil && plan.survivorsDecided(procs)) {
				res.Stopped = true
				stopNow = true
			}
		}
		for i := range conts {
			if plan != nil && plan.Round[i] != 0 && plan.Round[i] <= r {
				continue // crashed: its goroutine is gone
			}
			conts[i] <- !stopNow
		}
		if stopNow {
			break
		}
	}
	close(stop)
	tr.Close()
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// liveRun is what every process goroutine of one run shares: the run's
// shape, its transport and codec, and the control-plane channels to the
// controller. Built once in RunChaos.
type liveRun struct {
	n, maxRounds int
	pipelined    bool
	tr           transport.Transport
	codec        Codec
	share        *decodeShare
	reports      chan<- report
	stop         <-chan struct{}
}

// runProcess is one process goroutine: gather-decode-transition, then
// (when pipelined) the round-r+1 broadcast, then rendezvous with the
// controller, every round until released or aborted. In pipelined mode
// the round-1 send primes the pipeline before the loop; otherwise each
// round's send happens at the top of its own iteration, after the
// controller's release. chaos, when non-nil, injects this process's
// planned crash (site-exact) and stall delays; a crashing process
// performs its site's sends, optionally announces its death, reports
// crashed, and returns — its goroutine is the thing that dies.
func (run *liveRun) runProcess(self int, p rounds.Algorithm, cont <-chan bool, chaos *procChaos) {
	n, pipelined, codec := run.n, run.pipelined, run.codec
	sendReport := func(rep report) bool {
		select {
		case run.reports <- rep:
			return true
		case <-run.stop:
			return false
		}
	}
	ep, err := run.tr.Endpoint(self)
	if err != nil {
		sendReport(report{self: self, err: fmt.Errorf("runtime: p%d endpoint: %w", self+1, err)})
		return
	}
	dec := codec.NewDecoder(n)
	recv := make([]any, n)
	var sendBuf []byte
	var frames [][]byte
	send := func(r int) error {
		var serr error
		sendBuf, serr = codec.Encode(sendBuf[:0], p.Send(r))
		if serr != nil {
			return serr
		}
		return ep.Broadcast(r, sendBuf)
	}
	if pipelined {
		if err := send(1); err != nil {
			sendReport(report{self: self, round: 1, err: abortErr(self, 1, err)})
			return
		}
	}
	for r := 1; ; r++ {
		if chaos != nil && chaos.crashRound == r {
			// The planned crash. Before-send dies with the round-r message
			// unsent; mid-send broadcasts through the crash-cut policy (the
			// receivers in Partial get it, the rest get tombstones);
			// after-send broadcasts in full. Then the goroutine — the
			// process — is gone: no gather, no transition, no report beyond
			// the crash notice.
			if chaos.site != CrashBeforeSend {
				if err := send(r); err != nil {
					sendReport(report{self: self, round: r, err: abortErr(self, r, err)})
					return
				}
			}
			if chaos.notify && chaos.dm != nil {
				from := r
				if chaos.site != CrashBeforeSend {
					from = r + 1 // the round-r frame was really sent; only later rounds are dead
				}
				chaos.dm.MarkDead(self, from)
			}
			sendReport(report{self: self, round: r, crashed: true})
			return
		}
		if !pipelined {
			if d := chaos.sendDelay(r); d > 0 {
				time.Sleep(d)
			}
			if err := send(r); err != nil {
				sendReport(report{self: self, round: r, err: abortErr(self, r, err)})
				return
			}
		}
		got, err := ep.Gather(r, frames)
		if err != nil {
			sendReport(report{self: self, round: r, err: abortErr(self, r, err)})
			return
		}
		frames = got
		for q := 0; q < n; q++ {
			recv[q] = nil
			if got[q] == nil {
				continue
			}
			v, derr := run.share.decode(dec, q, r, got[q])
			if derr != nil {
				sendReport(report{self: self, round: r, err: derr})
				return
			}
			recv[q] = v
		}
		p.Transition(r, recv)
		// Pipelined send: round r+1's broadcast goes out before the
		// round-r report, so the next round's frames are in flight while
		// the controller runs observers. Observers run only after every
		// round-r report, so they never see a difference. The last round
		// sends nothing — the schedule is defined only up to MaxRounds.
		if pipelined && r < run.maxRounds {
			if err := send(r + 1); err != nil {
				sendReport(report{self: self, round: r, err: abortErr(self, r+1, err)})
				return
			}
		}
		if !sendReport(report{self: self, round: r}) {
			return
		}
		select {
		case ok := <-cont:
			if !ok {
				return
			}
		case <-run.stop:
			return
		}
	}
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

// RunnerOpts configures NewRunner.
type RunnerOpts struct {
	// Kind selects the transport: "inproc" (default), "tcp", or "udp".
	Kind string
	// Nodes groups the n processes onto this many mesh nodes for the
	// socket transports (co-located processes share sockets and their
	// rounds coalesce into one frame per node pair). 0 or >= n means one
	// node per process — the fully distributed shape.
	Nodes int
	// UDP configures the datagram mesh when Kind is "udp" (round
	// deadline, grace, socket buffers, injected datagram loss).
	// The zero value takes the transport's defaults.
	UDP transport.UDPOpts
	// Loss, when positive and Kind is "udp", loses each round frame on
	// the wire i.i.d. with this probability (deterministically from
	// LossSeed) — real absence-style loss, composed with any
	// UDP.DropDatagram hook and with the schedule's Policy drops. The
	// algorithm tolerates it by design; the loss-replay harness
	// (LossReplay) verifies the realized run still satisfies the paper's
	// bounds.
	Loss     float64
	LossSeed int64

	// Algorithm names the registered family whose Codec carries the
	// messages; "" resolves to the registry default (kset).
	Algorithm string
	// Jitter, when positive, layers deterministic per-link receive
	// latency in [0, Jitter) on top of the schedule's drops, seeded by
	// JitterSeed. Decisions are unaffected (Diff proves it); timing
	// skew is.
	Jitter     time.Duration
	JitterSeed int64

	// Crash, when non-nil, injects process crashes (see CrashPlan): the
	// planned processes' goroutines die at their planned rounds and
	// sites, their sends are cut accordingly in the transport policy,
	// and the run continues with the survivors (RunChaos).
	Crash *CrashPlan
	// Stall, when non-nil, delays processes' sends without killing them
	// (see StallPlan) — the stimulus for deadline closures and stall
	// streaks that end in recovery rather than a death verdict.
	Stall *StallPlan
	// TCPOpts tunes the TCP mesh (chaos knobs: deadline closure, stall
	// detection, reconnect). The zero value is the classic reliable mesh.
	TCPOpts transport.TCPOpts
	// Meter, when non-nil, records the realized heard-set of every
	// gather on any transport kind (overriding UDP.Meter).
	Meter *transport.HeardMeter
	// OnTransport, when non-nil, is called with each run's transport
	// right after construction — the hook the agreement service uses to
	// get a DeadMarker handle for watchdog verdicts.
	OnTransport func(transport.Transport)
}

// kind resolves the transport selection.
func (o RunnerOpts) kind() string {
	if o.Kind == "" {
		return "inproc"
	}
	return o.Kind
}

// meshNodes resolves the node count for an n-process socket mesh.
func (o RunnerOpts) meshNodes(n int) int {
	if o.Nodes <= 0 || o.Nodes > n {
		return n
	}
	return o.Nodes
}

// NewRunner adapts the distributed runtime to the executor signature of
// internal/rounds, for sim.Spec.Runner: the returned function builds a
// fresh transport whose drop policy replays cfg.Adversary (materialized
// for concurrent access), runs cfg over it, and tears the transport
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
		adv := adversary.MaterializeRun(cfg.Adversary, cfg.MaxRounds)
		cfg.Adversary = adv
		var pol transport.Policy = transport.NewSchedule(adv)
		if opts.Crash != nil {
			// The crash cut composes under the schedule: a crashing
			// process's round-r sends are restricted to its site's
			// receivers before the schedule's own drops apply.
			pol = crashCut{inner: pol, plan: opts.Crash}
		}
		if opts.Jitter > 0 {
			pol = transport.Jitter{Inner: pol, Seed: opts.JitterSeed, Max: opts.Jitter}
		}
		var tr transport.Transport
		switch kind := opts.kind(); kind {
		case "inproc":
			tr = transport.NewInProc(adv.N(), pol)
		case "tcp":
			t, err := transport.NewTCPMeshLoopbackOpts(adv.N(), opts.meshNodes(adv.N()), pol, opts.TCPOpts)
			if err != nil {
				return nil, err
			}
			tr = t
		case "udp":
			u := opts.UDP
			if injected := transport.FrameLoss(opts.Loss, opts.LossSeed); injected != nil {
				inner := u.DropDatagram
				u.DropDatagram = func(r, from, to, frag int) bool {
					return injected(r, from, to, frag) || (inner != nil && inner(r, from, to, frag))
				}
			}
			t, err := transport.NewUDPMeshLoopback(adv.N(), opts.meshNodes(adv.N()), pol, u)
			if err != nil {
				return nil, err
			}
			tr = t
		default:
			return nil, fmt.Errorf("runtime: unknown transport kind %q", kind)
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
		return RunChaos(cfg, tr, alg.Codec, opts.Crash, opts.Stall)
	}
}
