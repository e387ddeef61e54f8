package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/sim"
	"kset/internal/transport"
)

// countingAlg is a minimal algorithm for control-plane tests: it
// broadcasts (self, round) as raw bytes and counts what it hears.
type countingAlg struct {
	self, n int
	rounds  int
	heard   int
}

func (a *countingAlg) Init(self, n int) { a.self, a.n = self, n }
func (a *countingAlg) Send(r int) any   { return []byte{byte(a.self), byte(r)} }
func (a *countingAlg) Transition(r int, recv []any) {
	a.rounds = r
	for _, m := range recv {
		if m != nil {
			a.heard++
		}
	}
}

// rawCodec carries countingAlg's opaque byte-slice messages unchanged.
// Decode hands the transport's payload through without copying; the
// round-scoped validity contract is the transport's.
type rawCodec struct{}

func (rawCodec) Encode(dst []byte, msg any) ([]byte, error) {
	b, ok := msg.([]byte)
	if !ok {
		return nil, fmt.Errorf("rawCodec got %T, want []byte", msg)
	}
	return append(dst, b...), nil
}

func (rawCodec) NewDecoder(n int) algo.Decoder { return rawDecoder{} }

type rawDecoder struct{}

func (rawDecoder) Decode(from int, payload []byte) (any, error) { return payload, nil }

func TestRunExecutesMaxRoundsAndNotifiesObserver(t *testing.T) {
	n, maxRounds := 4, 7
	var observed []int
	cfg := rounds.Config{
		Adversary:  adversary.Complete(n),
		NewProcess: func(self int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  maxRounds,
		Observer: rounds.ObserverFunc(func(r int, g *graph.Digraph, procs []rounds.Algorithm) {
			observed = append(observed, r)
			for i, p := range procs {
				if got := p.(*countingAlg).rounds; got != r {
					t.Errorf("observer at round %d: p%d has only transitioned %d rounds", r, i+1, got)
				}
			}
		}),
	}
	res, err := Run(cfg, transport.NewInProc(n, nil), rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != maxRounds || res.Stopped {
		t.Fatalf("Rounds = %d, Stopped = %v; want %d, false", res.Rounds, res.Stopped, maxRounds)
	}
	if len(observed) != maxRounds {
		t.Fatalf("observer saw rounds %v, want 1..%d", observed, maxRounds)
	}
	for i, r := range observed {
		if r != i+1 {
			t.Fatalf("observer saw rounds %v out of order", observed)
		}
	}
	for i, p := range res.Procs {
		if got := p.(*countingAlg).heard; got != n*maxRounds {
			t.Fatalf("p%d heard %d messages over a complete graph, want %d", i+1, got, n*maxRounds)
		}
	}
}

func TestRunStopWhen(t *testing.T) {
	n := 3
	cfg := rounds.Config{
		Adversary:  adversary.Complete(n),
		NewProcess: func(self int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  50,
		StopWhen:   func(r int, procs []rounds.Algorithm) bool { return r == 4 },
	}
	res, err := Run(cfg, transport.NewInProc(n, nil), rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 || !res.Stopped {
		t.Fatalf("Rounds = %d, Stopped = %v; want 4, true", res.Rounds, res.Stopped)
	}
}

// badGraphAdversary violates the model (missing self-loop) from a given
// round on; Run must surface the same structural error the sequential
// executor reports.
type badGraphAdversary struct {
	n    int
	from int
}

func (a badGraphAdversary) N() int { return a.n }
func (a badGraphAdversary) Graph(r int) *graph.Digraph {
	g := graph.CompleteDigraph(a.n)
	if r >= a.from {
		g.RemoveEdge(0, 0)
	}
	return g
}

func TestRunRejectsInvalidGraph(t *testing.T) {
	n := 3
	cfg := rounds.Config{
		Adversary:  badGraphAdversary{n: n, from: 3},
		NewProcess: func(self int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  10,
	}
	_, err := Run(cfg, transport.NewInProc(n, nil), rawCodec{})
	if err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("Run with a self-loop-free round graph returned %v, want structural error", err)
	}
}

// malformedAdversary is complete in every round but bad, whose graph is
// nil or, when narrow, over a universe one process short.
type malformedAdversary struct {
	n, bad int
	narrow bool
}

func (a malformedAdversary) N() int { return a.n }
func (a malformedAdversary) Graph(r int) *graph.Digraph {
	switch {
	case r != a.bad:
		return graph.CompleteDigraph(a.n)
	case a.narrow:
		return graph.CompleteDigraph(a.n - 1)
	}
	return nil
}

// TestMalformedGraphEndsRunLikeSequential: a live run asks its policy
// about round r+1 before it checks round r+1's graph whenever it
// pipelines, and about round 1 before any check. A nil or wrongly sized
// graph must still end the run with RunSequential's error, after the same
// observer calls, at every worker count, pipelined or not.
func TestMalformedGraphEndsRunLikeSequential(t *testing.T) {
	const n = 3
	for _, adv := range []malformedAdversary{{n: n, bad: 1}, {n: n, bad: 2}, {n: n, bad: 2, narrow: true}} {
		for _, pipelined := range []bool{true, false} {
			for _, workers := range []int{1, n} {
				config := func(observed *[]int) rounds.Config {
					cfg := rounds.Config{
						Adversary:  adv,
						NewProcess: func(int) rounds.Algorithm { return &countingAlg{} },
						MaxRounds:  5,
						Observer: rounds.ObserverFunc(func(r int, _ *graph.Digraph, _ []rounds.Algorithm) {
							*observed = append(*observed, r)
						}),
					}
					if !pipelined {
						cfg.StopWhen = func(int, []rounds.Algorithm) bool { return false }
					}
					return cfg
				}
				var wantSeen, gotSeen []int
				_, want := rounds.RunSequential(config(&wantSeen))
				var got error
				if v := caught(func() {
					_, got = RunWorkers(config(&gotSeen), transport.NewInProc(n, transport.NewSchedule(adv)), rawCodec{}, workers)
				}); v != nil {
					t.Fatalf("%+v pipelined=%v workers=%d: run panicked: %v", adv, pipelined, workers, v)
				}
				if want == nil || got == nil || got.Error() != want.Error() || !slices.Equal(gotSeen, wantSeen) {
					t.Errorf("%+v pipelined=%v workers=%d: live %v after observing %v; sequential %v after %v",
						adv, pipelined, workers, got, gotSeen, want, wantSeen)
				}
			}
		}
	}
}

// askedPolicy counts the questions a transport asks its policy, per
// (round, sender).
type askedPolicy struct {
	transport.Policy
	mu    *sync.Mutex
	asked map[[2]int]int
}

func (p askedPolicy) Deliver(r, from int, to graph.NodeSet) {
	p.mu.Lock()
	p.asked[[2]int{r, from}]++
	p.mu.Unlock()
	p.Policy.Deliver(r, from, to)
}

// TestCrashedSenderAsksNothing: the policy is asked once per sender and
// round that really broadcasts — never for a process past its crash,
// nor for its crash round when it dies before sending.
func TestCrashedSenderAsksNothing(t *testing.T) {
	const n, maxRounds = 4, 6
	partial := make([]graph.NodeSet, n)
	partial[2] = graph.NodeSetOf(0)
	plan := &CrashPlan{
		Round:   []int{0, 3, 2, 0},
		Site:    []CrashSite{0, CrashBeforeSend, CrashMidSend, 0},
		Partial: partial,
		Notify:  true,
	}
	adv := adversary.Complete(n)
	pol := askedPolicy{crashCut{transport.NewSchedule(adv), plan}, new(sync.Mutex), map[[2]int]int{}}
	cfg := rounds.Config{
		Adversary:  adv,
		NewProcess: func(int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  maxRounds,
	}
	if _, err := runChaos(cfg, transport.NewInProc(n, pol), rawCodec{}, plan, nil); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= maxRounds; r++ {
		for p := 0; p < n; p++ {
			cr := plan.Round[p]
			want := 0
			if cr == 0 || r < cr || (r == cr && plan.Site[p] != CrashBeforeSend) {
				want = 1
			}
			if got := pol.asked[[2]int{r, p}]; got != want {
				t.Errorf("round %d: asked %d times about p%d, want %d", r, got, p+1, want)
			}
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(rounds.Config{}, transport.NewInProc(1, nil), rawCodec{}); err == nil {
		t.Fatal("Run accepted an empty Config")
	}
	cfg := rounds.Config{
		Adversary:  adversary.Complete(3),
		NewProcess: func(self int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  5,
	}
	if _, err := Run(cfg, transport.NewInProc(2, nil), rawCodec{}); err == nil {
		t.Fatal("Run accepted a transport sized for the wrong n")
	}
}

// TestRunRejectsNilCodec: no family is the runtime's default, so a nil
// codec is an up-front error — not a kset encode failure in round 1 of
// an approx run, and not a started run.
func TestRunRejectsNilCodec(t *testing.T) {
	n, built := 3, 0
	cfg := rounds.Config{
		Adversary: adversary.Complete(n),
		NewProcess: func(self int) rounds.Algorithm {
			built++
			return &countingAlg{}
		},
		MaxRounds: 5,
	}
	_, err := Run(cfg, transport.NewInProc(n, nil), nil)
	if err == nil || !strings.Contains(err.Error(), "nil codec") {
		t.Fatalf("Run with a nil codec returned %v, want the nil-codec error", err)
	}
	if built != 0 {
		t.Fatalf("Run built %d processes before rejecting the nil codec", built)
	}
}

// TestRunnerMatchesSequentialExecutor is the narrow end of the
// differential harness: the full sim pipeline over the runtime equals
// the lockstep executor on a nontrivial schedule, for both transports.
func TestRunnerMatchesSequentialExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	run := adversary.RandomSources(8, 2, 6, 0.3, rng)
	for _, kind := range []string{"inproc", "tcp"} {
		spec := sim.Spec{Adversary: run, Proposals: sim.SeqProposals(8)}
		if err := Diff(spec, RunnerOpts{Kind: kind}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// TestRunnerReusableConcurrently pins that each call of a NewRunner
// runner is an independent run: overlapping runs of one shared runner
// write no shared state (-race) and each reproduces the lockstep outcome.
func TestRunnerReusableConcurrently(t *testing.T) {
	spec := sim.Spec{Adversary: adversary.Figure1(), Proposals: sim.SeqProposals(6)}
	want, err := sim.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Runner = NewRunner(RunnerOpts{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sim.Execute(spec)
			if err != nil {
				t.Error(err)
				return
			}
			if err := CompareOutcomes(want, got); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestWireCodecRejectsForeignMessage(t *testing.T) {
	codec := algo.MustLookup(algo.KSet).Codec
	if _, err := codec.Encode(nil, "not a message"); err == nil {
		t.Fatal("the kset wire codec encoded a string")
	}
	dec := codec.NewDecoder(2)
	if _, err := dec.Decode(5, nil); err == nil {
		t.Fatal("decoder accepted out-of-range sender")
	}
	if _, err := dec.Decode(0, []byte{0xFF}); err == nil {
		t.Fatal("decoder accepted garbage payload")
	}
}

// TestRunnerEncodesRealWireBytes pins that the runtime's data plane
// really is the internal/wire encoding: a metered runtime run must
// account the same bytes the simulator's meter sees, and decide as it
// does on what it decoded from them. Over TCP, where messages really are
// encoded — fully distributed (every link but self) and on 2 nodes (half
// of them); an in-proc run encodes nothing and would pass vacuously.
func TestRunnerEncodesRealWireBytes(t *testing.T) {
	for _, nodes := range []int{0, 2} {
		rng := rand.New(rand.NewSource(13))
		run := adversary.RandomSources(6, 2, 4, 0.3, rng)
		spec := sim.Spec{Adversary: run, Proposals: sim.SeqProposals(6), MeterMessages: true}
		if err := Diff(spec, RunnerOpts{Kind: "tcp", Nodes: nodes}); err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
	}
}

func ExampleNewRunner() {
	// Replay the paper's Figure 1 run over real TCP sockets and check
	// the decisions against the lockstep simulator.
	spec := sim.Spec{
		Adversary: adversary.Figure1(),
		Proposals: sim.SeqProposals(6),
		Runner:    NewRunner(RunnerOpts{Kind: "tcp"}),
	}
	out, err := sim.Execute(spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("decisions:", out.DistinctDecisions())
	// Output:
	// decisions: [1 2]
}

// TestMeterRecordsScheduleOnEveryTransport runs one metered fixed-length
// spec over each transport kind — the meter is installed on the mesh
// core, not wrapped around the transport — and requires the recorded
// heard-set graphs to equal the schedule round for round.
func TestMeterRecordsScheduleOnEveryTransport(t *testing.T) {
	const n, maxRounds = 6, 12
	sched := adversary.MaterializeRun(
		adversary.RandomSources(n, 2, maxRounds/2, 0.3, rand.New(rand.NewSource(16))), maxRounds)
	for _, tc := range []struct {
		name string
		opts RunnerOpts
	}{
		{"inproc", RunnerOpts{}},
		{"tcp-2-nodes", RunnerOpts{Kind: "tcp", Nodes: 2}},
		{"udp-quiet-loopback", RunnerOpts{Kind: "udp", UDP: quietUDP()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meter := transport.NewHeardMeter(n)
			tc.opts.Meter = meter
			out, err := sim.Execute(sim.Spec{
				Adversary:       sched,
				Proposals:       sim.SeqProposals(n),
				MaxRounds:       maxRounds,
				RunToCompletion: true,
				Runner:          NewRunner(tc.opts),
			})
			if err != nil {
				t.Fatal(err)
			}
			graphs := meter.Graphs()
			if out.Rounds != maxRounds || len(graphs) != maxRounds {
				t.Fatalf("executed %d rounds, metered %d, want %d", out.Rounds, len(graphs), maxRounds)
			}
			for r := 1; r <= maxRounds; r++ {
				if !graphs[r-1].Equal(sched.Graph(r)) {
					t.Fatalf("round %d: metered %v, scheduled %v", r, graphs[r-1], sched.Graph(r))
				}
			}
		})
	}
}

// TestMeteredInProcRunSurvivesAnnouncedDeath pins that a death verdict
// reaches the mesh of a metered run: the in-proc transport closes rounds
// by count only, so without MarkDead the round after the crash would
// never close. The survivors' later rounds must be metered, with nobody
// hearing the dead.
func TestMeteredInProcRunSurvivesAnnouncedDeath(t *testing.T) {
	const n, maxRounds, victim, crashRound = 5, 8, 2, 3
	plan := &CrashPlan{Round: make([]int, n), Site: make([]CrashSite, n), Notify: true}
	plan.Round[victim] = crashRound // CrashBeforeSend: silent from crashRound on
	meter := transport.NewHeardMeter(n)
	out, err := sim.Execute(sim.Spec{
		Adversary:       adversary.Complete(n),
		Proposals:       sim.SeqProposals(n),
		MaxRounds:       maxRounds,
		RunToCompletion: true,
		Runner:          NewRunner(RunnerOpts{Crash: plan, Meter: meter}),
	})
	if err != nil {
		t.Fatal(err)
	}
	graphs := meter.Graphs()
	if out.Rounds != maxRounds || len(graphs) != maxRounds {
		t.Fatalf("executed %d rounds, metered %d, want %d", out.Rounds, len(graphs), maxRounds)
	}
	for r := 1; r <= maxRounds; r++ {
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				want := r < crashRound || (p != victim && q != victim)
				if got := graphs[r-1].HasEdge(p, q); got != want {
					t.Fatalf("round %d: edge p%d->p%d metered %v, want %v", r, p+1, q+1, got, want)
				}
			}
		}
	}
}

// countedRoot counts, per round, the graphs a VertexStableRoot — a
// generator that never stabilizes, so its MaxRounds is 12n — is asked for.
type countedRoot struct {
	*adversary.VertexStableRoot
	mu    sync.Mutex
	calls map[int]int
}

func (c *countedRoot) Graph(r int) *graph.Digraph {
	c.mu.Lock()
	c.calls[r]++
	c.mu.Unlock()
	return c.VertexStableRoot.Graph(r)
}

// TestRunnerGeneratesOnlyRoundsReached pins who makes the schedule a pure
// read: a NewRunner run generates each round once, on first demand, for
// the caller and every worker together — and none the run never reaches.
func TestRunnerGeneratesOnlyRoundsReached(t *testing.T) {
	const n = 8
	idle := &StallPlan{From: make([]int, n), To: make([]int, n), Delay: make([]time.Duration, n)}
	for _, tc := range []struct {
		name       string
		opts       RunnerOpts
		completion bool
	}{
		{"stops when all decided, inline", RunnerOpts{}, false},
		{"stops when all decided, a worker per process", RunnerOpts{Stall: idle}, false},
		{"fixed length, pipelined", RunnerOpts{}, true},
	} {
		adv := &countedRoot{VertexStableRoot: adversary.NewVertexStableRoot(n, 2, 0.2, 5), calls: map[int]int{}}
		out, err := sim.Execute(sim.Spec{
			Adversary:       adv,
			Proposals:       sim.SeqProposals(n),
			RunToCompletion: tc.completion,
			Runner:          NewRunner(tc.opts),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.completion != (out.Rounds == 12*n) {
			t.Fatalf("%s: ran %d of %d rounds", tc.name, out.Rounds, 12*n)
		}
		if len(adv.calls) != out.Rounds {
			t.Errorf("%s: generated %d rounds for a run of %d", tc.name, len(adv.calls), out.Rounds)
		}
		for r := 1; r <= out.Rounds; r++ {
			if adv.calls[r] != 1 {
				t.Errorf("%s: round %d generated %d times", tc.name, r, adv.calls[r])
			}
		}
	}
}
