package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"runtime/debug"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/approx"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/rounds/roundstest"
	"kset/internal/sim"
	"kset/internal/transport"
	"kset/internal/wire"
)

// The tests in this file hold the live executor to the contract the
// lockstep one answers to in internal/rounds/shard_test.go: a run is the
// same run whoever steps its processes. They pin the worker count
// through RunWorkers (export_test.go); Run and RunChaos only derive it.

// liveOutcome is everything a live run exposes, as comparable values.
type liveOutcome struct {
	Rounds       int
	Stopped      bool
	Decided      []bool
	Decisions    []int64
	DecideRounds []int
	Meter        wire.Meter
	Heard        []string // the HeardMeter's graph of each round
	Observed     []string // one line per observer call
}

// ownPolicy is a policy of a caller's own: to the transport and the
// runtime it is not a Schedule, just something with a Deliver method.
type ownPolicy struct{ transport.Schedule }

// mesh builds the transport for an n-process run of adv the way
// NewRunner does: "inproc" ("inproc-own": under an ownPolicy), or "tcp"
// on 2 nodes.
func mesh(t testing.TB, kind string, adv *adversary.Run) transport.Transport {
	t.Helper()
	switch kind {
	case "inproc":
		return transport.NewInProc(adv.N(), transport.NewSchedule(adv))
	case "inproc-own":
		return transport.NewInProc(adv.N(), ownPolicy{transport.NewSchedule(adv)})
	}
	tr, err := transport.NewTCPMeshLoopbackOpts(adv.N(), 2, transport.NewSchedule(adv), transport.TCPOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// executeLive runs spec through sim.Execute (metered, observed, heard-
// metered) on the live executor at the given worker count, co-located
// links by value as every exported entry point runs them, or — byBytes —
// every link through the codec.
func executeLive(t *testing.T, spec sim.Spec, kind string, workers int, byBytes bool) (run liveOutcome) {
	t.Helper()
	alg := algo.MustLookup(spec.Algorithm)
	var res *rounds.Result
	var heard *transport.HeardMeter
	spec.MeterMessages = true
	spec.Runner = func(cfg rounds.Config) (*rounds.Result, error) {
		adv := adversary.MaterializeRun(cfg.Adversary, cfg.MaxRounds)
		cfg.Adversary = adv
		tr := mesh(t, kind, adv)
		heard = transport.NewHeardMeter(adv.N())
		if err := transport.Metered(tr, heard); err != nil {
			return nil, err
		}
		runWorkers := RunWorkers
		if byBytes {
			runWorkers = RunWorkersByBytes
		}
		var err error
		res, err = runWorkers(cfg, tr, alg.Codec, workers)
		return res, err
	}
	spec.Observer = rounds.ObserverFunc(func(r int, g *graph.Digraph, procs []rounds.Algorithm) {
		decided := 0
		for _, p := range procs {
			if p.(rounds.Decider).Decided() {
				decided++
			}
		}
		run.Observed = append(run.Observed, fmt.Sprintf("r%d edges=%d decided=%d", r, g.NumEdges(), decided))
	})
	out, err := sim.Execute(spec)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", kind, workers, err)
	}
	run.Rounds, run.Stopped = res.Rounds, res.Stopped
	run.Decided, run.Decisions, run.DecideRounds = out.Decided, out.Decisions, out.DecideRounds
	run.Meter = out.Meter
	for _, g := range heard.Graphs() {
		run.Heard = append(run.Heard, g.String())
	}
	return run
}

// liveSchedules is the differential corpus at size n: the four adversary
// shapes of the lockstep corpus, each for both registered families, each
// run to decision (StopWhen) and at a fixed length (pipelined).
func liveSchedules(n int) map[string]sim.Spec {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(int64(n))) }
	advs := map[string]func() rounds.Adversary{
		"hub": func() rounds.Adversary { return adversary.HubClusters(n, 2, 4, 2/float64(n), rng()) },
		"single-source": func() rounds.Adversary {
			return adversary.RandomSingleSource(n, 0, 0.2, 0, rng())
		},
		"t-interval": func() rounds.Adversary { return adversary.NewTInterval(n, 3, 9, 3, int64(n)) },
		"noisy-prefix": func() rounds.Adversary {
			return adversary.RandomSingleSource(n, 6, 0, 3/float64(n), rng())
		},
	}
	vertices := make([]int64, n)
	for i := range vertices {
		vertices[i] = int64(i * 7 % (n + 1))
	}
	specs := map[string]sim.Spec{}
	for name, adv := range advs {
		kset := sim.Spec{Adversary: adv(), Proposals: sim.SeqProposals(n)}
		apx := sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adv(),
			Proposals: vertices,
			Params:    approx.Options{DecideRound: 2 * approx.PhaseLen(n)},
		}
		specs["kset/"+name], specs["approx/"+name] = kset, apx
		kset.MaxRounds, kset.RunToCompletion = 3*n, true
		apx.MaxRounds, apx.RunToCompletion = 3*n, true
		specs["kset/"+name+"/fixed"], specs["approx/"+name+"/fixed"] = kset, apx
	}
	return specs
}

func TestBlockSteppedEqualsPerProcess(t *testing.T) {
	const n = 9
	kinds, workers := []string{"inproc", "inproc-own", "tcp"}, []int{1, 2, 3}
	if testing.Short() || raceEnabled {
		workers = []int{2}
	}
	for name, spec := range liveSchedules(n) {
		for _, kind := range kinds {
			// One process per worker is the shape every live run had
			// before the pool: the reference.
			want := executeLive(t, spec, kind, n, false)
			if len(want.Observed) != want.Rounds || len(want.Heard) != want.Rounds || want.Meter.Messages != n*want.Rounds {
				t.Fatalf("%s %s: reference run observed %d rounds, heard %d, metered %d messages, executed %d rounds",
					name, kind, len(want.Observed), len(want.Heard), want.Meter.Messages, want.Rounds)
			}
			if want.Stopped == spec.RunToCompletion {
				t.Fatalf("%s %s: Stopped = %v after %d rounds", name, kind, want.Stopped, want.Rounds)
			}
			for _, w := range workers {
				if got := executeLive(t, spec, kind, w, false); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s workers=%d: run differs from the one-per-process run\n got %+v\nwant %+v", name, kind, w, got, want)
				}
			}
		}
	}
}

// faulty is a trivial process that panics with its own value in a given
// round, or never (round 0); it records the most pool workers its
// transitions saw alive.
type faulty struct {
	countingAlg
	round int
	value error
	seen  int
}

func (f *faulty) Transition(r int, recv []any) {
	f.seen = max(f.seen, roundstest.PoolWorkers())
	if r == f.round {
		panic(f.value)
	}
}

// caught runs fn and returns what it panicked with.
func caught(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// settled reports whether every pool worker has gone: a worker the
// executor has waited for may still be between its last statement and its
// exit.
func settled() bool {
	deadline := time.Now().Add(5 * time.Second)
	for roundstest.PoolWorkers() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		goruntime.Gosched()
	}
	return true
}

// within fails the test unless fn returns in time: the failures these
// tests exist for are hangs.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still running after %v", what, d)
	}
}

// TestLivePanicReachesCaller is the live twin of
// rounds.TestShardedPanicReachesCaller: whoever steps the process that
// panics, Run's caller recovers the original value, the transport is
// closed (that is what frees the workers parked in Gather), and no worker
// is left behind.
func TestLivePanicReachesCaller(t *testing.T) {
	const n = 7
	for _, victim := range []int{0, n / 2, n - 1} {
		boom := fmt.Errorf("p%d lost itself", victim+1)
		cfg := rounds.Config{
			Adversary: adversary.Complete(n),
			MaxRounds: 5,
			NewProcess: func(self int) rounds.Algorithm {
				if self == victim {
					return &faulty{round: 3, value: boom}
				}
				return &faulty{}
			},
		}
		for _, pipelined := range []bool{true, false} {
			if !pipelined {
				cfg.StopWhen = func(int, []rounds.Algorithm) bool { return false }
			}
			for _, workers := range []int{1, 2, 3, n} { // inline, blocks, one per process
				tr := transport.NewInProc(n, nil)
				within(t, 10*time.Second, "panicking run", func() {
					v := caught(func() { RunWorkers(cfg, tr, rawCodec{}, workers) })
					if err, ok := v.(error); !ok || !errors.Is(err, boom) {
						t.Errorf("victim p%d, pipelined=%v, workers=%d: caller recovered %v, want %v", victim+1, pipelined, workers, v, boom)
					}
				})
				if _, err := tr.Endpoint(0); !errors.Is(err, transport.ErrClosed) {
					t.Errorf("victim p%d, workers=%d: transport not closed after the panic: %v", victim+1, workers, err)
				}
				if !settled() {
					t.Errorf("victim p%d, workers=%d: %d pool workers alive after the panic", victim+1, workers, roundstest.PoolWorkers())
				}
			}
		}
	}
}

// opaque hides a transport's concrete type, as the benchmark's tracing
// wrapper does: the runtime can learn nothing about it.
type opaque struct{ transport.Transport }

// TestInlineRunStartsNoGoroutine pins the derivation of the worker count
// by counting the pool's goroutines from inside the transitions: none
// below the crossover and on one core at any n; n - 1 (the caller is
// worker 0) from the crossover up and whenever a process needs a clock
// of its own.
func TestInlineRunStartsNoGoroutine(t *testing.T) {
	run := func(n int, tr transport.Transport, stall *StallPlan) (during int) {
		t.Helper()
		res, err := runChaos(rounds.Config{
			Adversary:  adversary.Complete(n),
			NewProcess: func(int) rounds.Algorithm { return &faulty{} },
			MaxRounds:  3,
		}, tr, rawCodec{}, nil, stall)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Procs {
			during = max(during, p.(*faulty).seen)
		}
		if !settled() {
			t.Fatal("pool workers still running after the run")
		}
		return during
	}
	if !settled() {
		t.Fatal("pool workers of an earlier test still running")
	}
	const small, big = InlineBelowN - 1, InlineBelowN
	tcp, err := transport.NewTCPMeshLoopbackOpts(small, 2, nil, transport.TCPOpts{})
	if err != nil {
		t.Fatal(err)
	}
	udp, err := transport.NewUDPMeshLoopback(4, 2, nil, quietUDP())
	if err != nil {
		t.Fatal(err)
	}
	sched := transport.NewSchedule(adversary.Complete(small))
	spread := big - 1
	if goruntime.GOMAXPROCS(0) == 1 {
		spread = 0
	}
	for _, tc := range []struct {
		name  string
		n     int
		tr    transport.Transport
		stall *StallPlan
		want  int
	}{
		{"inproc below the crossover", small, transport.NewInProc(small, sched), nil, 0},
		{"tcp below the crossover", small, tcp, nil, 0},
		{"inproc from the crossover up", big, transport.NewInProc(big, nil), nil, spread},
		{"empty stall plan", 4, transport.NewInProc(4, nil), &StallPlan{From: make([]int, 4), To: make([]int, 4), Delay: make([]time.Duration, 4)}, 3},
		{"a policy of the caller's own", 4, transport.NewInProc(4, ownPolicy{transport.NewSchedule(adversary.Complete(4))}), nil, 0},
		{"deadline mesh", 4, udp, nil, 3},
		{"not a mesh", 4, opaque{transport.NewInProc(4, nil)}, nil, 3},
	} {
		if got := run(tc.n, tc.tr, tc.stall); got != tc.want {
			t.Errorf("%s: %d pool workers during the run, want %d", tc.name, got, tc.want)
		}
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	if got := run(2*big, transport.NewInProc(2*big, nil), nil); got != 0 {
		t.Errorf("GOMAXPROCS=1, n=%d: %d pool workers during the run", 2*big, got)
	}
}

// TestCloseAbortsInlineRun: a Close from another goroutine — ksetd's
// watchdog path — ends a run with ErrClosed within one round, whoever
// steps the processes (inline on in-proc and TCP, one per process on
// UDP) and whether or not the run is pipelined.
func TestCloseAbortsInlineRun(t *testing.T) {
	const n, closeAt = 4, 3
	for _, kind := range []string{"inproc", "tcp", "udp"} {
		for _, pipelined := range []bool{true, false} {
			var tr transport.Transport
			var err error
			switch kind {
			case "inproc":
				tr = transport.NewInProc(n, nil)
			case "tcp":
				tr, err = transport.NewTCPMeshLoopbackOpts(n, 2, nil, transport.TCPOpts{})
			case "udp":
				tr, err = transport.NewUDPMeshLoopback(n, 2, nil, quietUDP())
			}
			if err != nil {
				t.Fatal(err)
			}
			observed := 0
			cfg := rounds.Config{
				Adversary:  adversary.Complete(n),
				NewProcess: func(int) rounds.Algorithm { return &countingAlg{} },
				MaxRounds:  1 << 20,
				Observer: rounds.ObserverFunc(func(r int, _ *graph.Digraph, _ []rounds.Algorithm) {
					if observed = r; r == closeAt {
						closed := make(chan struct{})
						go func() {
							tr.Close()
							close(closed)
						}()
						<-closed
					}
				}),
			}
			if !pipelined {
				cfg.StopWhen = func(int, []rounds.Algorithm) bool { return false }
			}
			within(t, 10*time.Second, kind+" run closed from outside", func() {
				if _, err := Run(cfg, tr, rawCodec{}); !errors.Is(err, transport.ErrClosed) {
					t.Errorf("%s pipelined=%v: Run returned %v, want ErrClosed", kind, pipelined, err)
				}
			})
			if observed != closeAt {
				t.Errorf("%s pipelined=%v: run reached round %d after a Close in round %d", kind, pipelined, observed, closeAt)
			}
		}
	}
}

// TestLiveRoundAllocs pins the live steady-state round at zero
// allocations, inline and on two blocks, beside transport's
// TestSteadyStateAllocs and rounds' TestShardedRoundAllocs: a run that
// executes 200 more rounds allocates as much as the shorter one. GC is
// off so nothing the collector does passes for per-round allocations. The
// counts are process-wide, so they are equal only up to a handful —
// goroutines earlier tests left winding down, and the waiter record
// (sudog) the Go runtime allocates now and then when two blocks contend
// for a mailbox mutex — where one allocation per round is 200. In-proc,
// so every message goes by value: what is pinned is the table and the
// mark, beside TestBuiltinCodecAllocs for the codec the sockets still pay.
func TestLiveRoundAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 8
	adv := adversary.Complete(n)
	codec := algo.MustLookup(algo.KSet).Codec
	const slack = 20
	for _, workers := range []int{1, 2} {
		perRun := func(maxRounds int) float64 {
			cfg := rounds.Config{
				Adversary:  adv,
				NewProcess: core.NewFactory(sim.SeqProposals(n), core.Options{}),
				MaxRounds:  maxRounds,
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := RunWorkers(cfg, transport.NewInProc(n, transport.NewSchedule(adv)), codec, workers); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Both runs are long past the decision round, with all scratch at
		// its final size and every ring slot's buffer grown.
		if short, long := perRun(400), perRun(600); long-short > slack || short-long > slack {
			t.Errorf("workers=%d: live run allocates %v with 200 more rounds, %v without: %v allocs per round, want 0",
				workers, long, short, (long-short)/200)
		}
	}
}

// BenchmarkLiveCrossover re-measures the table behind inlineBelowN:
// in-proc rounds per second on the run_inproc_n16 schedule shape, the
// caller stepping every process inline against two blocks against one
// worker per process (the shape every live run had before the pool).
func BenchmarkLiveCrossover(b *testing.B) {
	codec := algo.MustLookup(algo.KSet).Codec
	for _, n := range []int{8, 16, 24, 28, 32, 36, 40, 48, 64} {
		adv := adversary.MaterializeRun(adversary.RandomSingleSource(n, 0, 0.2, 0, rand.New(rand.NewSource(1))), 1)
		cfg := rounds.Config{
			Adversary:  adv,
			NewProcess: core.NewFactory(sim.SeqProposals(n), core.Options{}),
			MaxRounds:  max(200, 20000/n),
		}
		for _, workers := range []int{1, 2, n} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunWorkers(cfg, mesh(b, "inproc", adv), codec, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N*cfg.MaxRounds)/b.Elapsed().Seconds(), "rounds/s")
			})
		}
	}
}
