package rounds_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
	"kset/internal/wire"
)

// The tests in this file hold the sharded deliver + Transition phase of
// rounds.RunSequential to its one contract: a run is the same run at
// every worker count. They reach the worker count through
// rounds.RunLockstep (export_test.go); the exported function only
// computes it from n and GOMAXPROCS.

const minN = rounds.ShardMinN

// shardRun is everything a run exposes, as comparable values.
type shardRun struct {
	Rounds       int
	Stopped      bool
	Decided      []bool
	Decisions    []int64
	DecideRounds []int
	Meter        wire.Meter
	Observed     []string // one line per observer call
}

// execute runs spec through sim.Execute (metered, observed) on the
// lockstep executor at the given worker count; it also returns the
// processes in their final state.
func execute(t *testing.T, spec sim.Spec, workers int) (run shardRun, final []rounds.Algorithm) {
	t.Helper()
	var res *rounds.Result
	spec.MeterMessages = true
	spec.Runner = func(cfg rounds.Config) (*rounds.Result, error) {
		var err error
		res, err = rounds.RunLockstep(cfg, workers)
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
		final = procs
	})
	out, err := sim.Execute(spec)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	run.Rounds, run.Stopped = res.Rounds, res.Stopped
	run.Decided, run.Decisions, run.DecideRounds = out.Decided, out.Decisions, out.DecideRounds
	run.Meter = out.Meter
	return run, final
}

// sameFinalState compares the processes' final states: the approximation
// graph of a k-set process, the position of an approx one.
func sameFinalState(a, b []rounds.Algorithm) error {
	for i := range a {
		switch p := a[i].(type) {
		case *core.Process:
			if !p.ApproxView().Equal(b[i].(*core.Process).ApproxView()) {
				return fmt.Errorf("p%d: approximation graphs differ", i+1)
			}
		case *approx.Process:
			if p.Position() != b[i].(*approx.Process).Position() {
				return fmt.Errorf("p%d: positions differ", i+1)
			}
		default:
			return fmt.Errorf("p%d: unexpected process type %T", i+1, p)
		}
	}
	return nil
}

// shardSchedules is the differential corpus at size n: the four
// adversary shapes, each for both registered families. The k-set specs
// run to decision on sparse skeletons (a dense one costs a minute at
// n = 257); the approx specs decide after two phases.
func shardSchedules(n int) map[string]sim.Spec {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(int64(n))) }
	advs := map[string]func() rounds.Adversary{
		"hub": func() rounds.Adversary { return adversary.HubClusters(n, 4, 8, 2/float64(n), rng()) },
		"single-source": func() rounds.Adversary {
			return adversary.RandomSingleSource(n, 0, 1/float64(n), 0, rng())
		},
		"t-interval": func() rounds.Adversary { return adversary.NewTInterval(n, 5, 16, 3, int64(n)) },
		// A bare star under 16 rounds of noise: ~3n stale edges a round
		// for the purge to retire, on a skeleton that keeps the run cheap.
		"noisy-prefix": func() rounds.Adversary {
			return adversary.RandomSingleSource(n, 16, 0, 3/float64(n), rng())
		},
	}
	vertices := make([]int64, n)
	for i := range vertices {
		vertices[i] = int64(i * 7 % (n + 1))
	}
	specs := map[string]sim.Spec{}
	for name, adv := range advs {
		specs["kset/"+name] = sim.Spec{Adversary: adv(), Proposals: sim.SeqProposals(n)}
		specs["approx/"+name] = sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adv(),
			Proposals: vertices,
			Params:    approx.Options{DecideRound: 2 * approx.PhaseLen(n)},
		}
	}
	return specs
}

func TestShardedEqualsInline(t *testing.T) {
	sizes := []int{minN - 1, minN, 2*minN + 1}
	workers := []int{2, 3, 7}
	if testing.Short() || raceEnabled {
		sizes, workers = []int{minN}, []int{3}
	}
	for _, n := range sizes {
		for name, spec := range shardSchedules(n) {
			want, wantFinal := execute(t, spec, 1)
			if len(want.Observed) != want.Rounds || want.Meter.Messages != n*want.Rounds {
				t.Fatalf("n=%d %s: inline run observed %d rounds, metered %d messages, executed %d rounds",
					n, name, len(want.Observed), want.Meter.Messages, want.Rounds)
			}
			for _, w := range workers {
				got, gotFinal := execute(t, spec, w)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d %s workers=%d: run differs from the inline run\n got %+v\nwant %+v", n, name, w, got, want)
				} else if err := sameFinalState(gotFinal, wantFinal); err != nil {
					t.Errorf("n=%d %s workers=%d: %v", n, name, w, err)
				}
			}
		}
	}
}

// faulty is a trivial process that panics with its own value in a given
// round, or never (round 0).
type faulty struct {
	self  int
	round int
	value error
}

func (f *faulty) Init(self, n int) { f.self = self }
func (f *faulty) Send(int) any     { return f.self }
func (f *faulty) Transition(r int, recv []any) {
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
// exit. It counts the pool's own goroutines (roundstest.PoolWorkers), not
// runtime.NumGoroutine, which also sees the goroutines of earlier tests
// that are still exiting.
func settled() bool {
	deadline := time.Now().Add(5 * time.Second)
	for roundstest.PoolWorkers() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

func TestShardedPanicReachesCaller(t *testing.T) {
	n := minN + 3
	boom := make([]error, n)
	for i := range boom {
		boom[i] = fmt.Errorf("p%d lost itself", i+1)
	}
	cases := []struct {
		name   string
		faulty []int // processes that panic in round 3
		want   int   // whose value the caller must see: the lowest, as inline
	}{
		{"last worker", []int{n - 1}, n - 1},
		{"caller's block", []int{0}, 0},
		{"two workers", []int{n - 1, n/2 + 1}, n/2 + 1},
		{"caller and worker", []int{n - 2, 1}, 1},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3} {
			cfg := rounds.Config{
				Adversary: adversary.Complete(n),
				MaxRounds: 5,
				NewProcess: func(self int) rounds.Algorithm {
					f := &faulty{value: boom[self]}
					for _, q := range tc.faulty {
						if q == self {
							f.round = 3
						}
					}
					return f
				},
			}
			v := caught(func() { rounds.RunLockstep(cfg, workers) })
			if err, ok := v.(error); !ok || !errors.Is(err, boom[tc.want]) {
				t.Errorf("%s, workers=%d: caller recovered %v, want %v", tc.name, workers, v, boom[tc.want])
			}
			if !settled() {
				t.Errorf("%s, workers=%d: %d pool workers alive after the panic", tc.name, workers, roundstest.PoolWorkers())
			}
		}
	}
}

// badFrom is a complete-graph adversary whose graph loses a self-loop in
// one round.
type badFrom struct {
	*adversary.Run
	round int
}

func (b badFrom) Graph(r int) *graph.Digraph {
	g := b.Run.Graph(r)
	if r == b.round {
		g = g.Clone()
		g.RemoveEdge(0, 0)
	}
	return g
}

func TestShardedWorkersStopOnEveryExit(t *testing.T) {
	n := minN
	quiet := func(int) rounds.Algorithm { return &faulty{} }
	exits := map[string]rounds.Config{
		"MaxRounds": {Adversary: adversary.Complete(n), NewProcess: quiet, MaxRounds: 4},
		"StopWhen": {Adversary: adversary.Complete(n), NewProcess: quiet, MaxRounds: 9,
			StopWhen: func(r int, _ []rounds.Algorithm) bool { return r == 2 }},
		"CheckGraph error": {Adversary: badFrom{adversary.Complete(n), 3}, NewProcess: quiet, MaxRounds: 9},
	}
	for name, cfg := range exits {
		res, err := rounds.RunLockstep(cfg, 3)
		if (err != nil) != (name == "CheckGraph error") {
			t.Errorf("%s: err = %v", name, err)
		}
		if err == nil && res.Stopped != (name == "StopWhen") {
			t.Errorf("%s: Stopped = %v after %d rounds", name, res.Stopped, res.Rounds)
		}
		if !settled() {
			t.Errorf("%s: %d pool workers alive after the run", name, roundstest.PoolWorkers())
		}
	}
}

// counting records the largest number of pool workers its transitions
// saw alive.
type counting struct {
	faulty
	seen int
}

func (c *counting) Transition(int, []any) { c.seen = max(c.seen, roundstest.PoolWorkers()) }

// TestInlineBelowCrossoverAndOnOneCore pins the selection rule: below
// the crossover, and on one core at any n, RunSequential steps every
// transition on the caller's goroutine and starts none; from the
// crossover up it starts GOMAXPROCS - 1.
func TestInlineBelowCrossoverAndOnOneCore(t *testing.T) {
	run := func(n int) (during int) {
		res, err := rounds.RunSequential(rounds.Config{
			Adversary:  adversary.Complete(n),
			NewProcess: func(int) rounds.Algorithm { return &counting{} },
			MaxRounds:  3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Procs {
			during = max(during, p.(*counting).seen)
		}
		return during
	}
	if !settled() {
		t.Fatal("pool workers of an earlier test still running")
	}
	if cores := runtime.GOMAXPROCS(0); cores > 1 {
		if got := run(minN); got != cores-1 {
			t.Errorf("n=%d on %d cores: %d pool workers during the run, want %d", minN, cores, got, cores-1)
		}
		if !settled() {
			t.Fatalf("workers still running")
		}
	}
	if got := run(minN - 1); got != 0 {
		t.Errorf("n=%d: %d pool workers during the run", minN-1, got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := run(2 * minN); got != 0 {
		t.Errorf("GOMAXPROCS=1, n=%d: %d pool workers during the run", 2*minN, got)
	}
}

// TestShardedRoundAllocs pins the sharded steady-state round at zero
// allocations, next to core's TestTransitionAllocsPerRun: a run that
// executes 200 more rounds allocates exactly as much as the shorter one
// — its processes, buffers, channels and workers — so a round costs no
// WaitGroup, closure or channel.
func TestShardedRoundAllocs(t *testing.T) {
	n := 12
	perRun := func(maxRounds int) float64 {
		cfg := rounds.Config{
			Adversary:  adversary.Complete(n),
			NewProcess: core.NewFactory(sim.SeqProposals(n), core.Options{}),
			MaxRounds:  maxRounds,
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := rounds.RunLockstep(cfg, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Both runs are past the decision round, with all scratch at its
	// final size.
	if short, long := perRun(4*n), perRun(4*n+200); long != short {
		t.Errorf("sharded run allocates %v with 200 more rounds, %v without: %v allocs per round, want 0",
			long, short, (long-short)/200)
	}
}

// BenchmarkShardCrossover re-measures the table behind shardMinN: µs per
// round, inline against two workers, on the sparse hub shape (run to
// decision) and on a dense single-source graph (12 rounds: a dense round
// costs ~n⁴/64 word operations).
func BenchmarkShardCrossover(b *testing.B) {
	shapes := []struct {
		name      string
		adv       func(n int) rounds.Adversary
		maxRounds func(n int) int
	}{
		{"hub", func(n int) rounds.Adversary {
			return adversary.HubClusters(n, 4, 8, 2/float64(n), rand.New(rand.NewSource(1)))
		}, func(n int) int { return 4 * n }},
		{"dense", func(n int) rounds.Adversary {
			return adversary.RandomSingleSource(n, 4, 0.5, 0.1, rand.New(rand.NewSource(1)))
		}, func(int) int { return 12 }},
	}
	for _, sh := range shapes {
		for _, n := range []int{32, 64, 96, 128, 256} {
			cfg := rounds.Config{
				Adversary:  sh.adv(n),
				NewProcess: core.NewFactory(sim.SeqProposals(n), core.Options{}),
				MaxRounds:  sh.maxRounds(n),
				StopWhen:   rounds.AllDecided,
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/n=%d/workers=%d", sh.name, n, workers), func(b *testing.B) {
					executed := 0
					for i := 0; i < b.N; i++ {
						res, err := rounds.RunLockstep(cfg, workers)
						if err != nil {
							b.Fatal(err)
						}
						executed += res.Rounds
					}
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(executed), "µs/round")
				})
			}
		}
	}
}
