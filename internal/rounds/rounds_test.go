package rounds

import (
	"fmt"
	"testing"

	"kset/internal/graph"
)

// staticAdv returns the same graph every round.
type staticAdv struct {
	g *graph.Digraph
}

func (a staticAdv) N() int                   { return a.g.N() }
func (a staticAdv) Graph(int) *graph.Digraph { return a.g }
func (a staticAdv) StabilizationRound() int  { return 1 }
func complete(n int) staticAdv               { return staticAdv{g: graph.CompleteDigraph(n)} }
func onlySelf(n int) staticAdv {
	g := graph.NewFullDigraph(n)
	g.AddSelfLoops()
	return staticAdv{g: g}
}

// minFlood is a minimal agreement-ish algorithm used to exercise the
// executor: it tracks the smallest proposal it has heard of.
type minFlood struct {
	self, n int
	min     int64
	history []string // per-round digest, one entry per transition
}

func (m *minFlood) Init(self, n int) {
	m.self = self
	m.n = n
	m.min = int64(1000 + self)
}

func (m *minFlood) Send(r int) any { return m.min }

func (m *minFlood) Transition(r int, recv []any) {
	for q, msg := range recv {
		if msg == nil {
			continue
		}
		v := msg.(int64)
		if v < m.min {
			m.min = v
		}
		_ = q
	}
	m.history = append(m.history, fmt.Sprintf("r%d:%d", r, m.min))
}

func TestSequentialMinFloodComplete(t *testing.T) {
	cfg := Config{
		Adversary:  complete(5),
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  3,
	}
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 || res.Stopped {
		t.Fatalf("Rounds=%d Stopped=%v", res.Rounds, res.Stopped)
	}
	for i, p := range res.Procs {
		if got := p.(*minFlood).min; got != 1000 {
			t.Fatalf("proc %d min = %d, want 1000 (complete graph floods in 1 round)", i, got)
		}
	}
}

func TestSequentialIsolationKeepsOwnValue(t *testing.T) {
	cfg := Config{
		Adversary:  onlySelf(4),
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  5,
	}
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Procs {
		if got := p.(*minFlood).min; got != int64(1000+i) {
			t.Fatalf("proc %d min = %d, want own value", i, got)
		}
	}
}

func TestChainPropagationTakesDistanceRounds(t *testing.T) {
	// p1 -> p2 -> p3 -> p4: value of p1 reaches p4 after exactly 3 rounds.
	g := graph.NewFullDigraph(4)
	g.AddSelfLoops()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	for rounds := 1; rounds <= 4; rounds++ {
		res, err := RunSequential(Config{
			Adversary:  staticAdv{g: g},
			NewProcess: func(int) Algorithm { return &minFlood{} },
			MaxRounds:  rounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		last := res.Procs[3].(*minFlood).min
		if rounds < 3 && last == 1000 {
			t.Fatalf("value arrived too early (rounds=%d)", rounds)
		}
		if rounds >= 3 && last != 1000 {
			t.Fatalf("value did not arrive after %d rounds: %d", rounds, last)
		}
	}
}

func TestRecvSelfAlwaysDelivered(t *testing.T) {
	sawSelf := make([]bool, 3)
	type probe struct {
		minFlood
	}
	cfg := Config{
		Adversary: onlySelf(3),
		NewProcess: func(self int) Algorithm {
			p := &probe{}
			return p
		},
		MaxRounds: 1,
		Observer: ObserverFunc(func(r int, g *graph.Digraph, procs []Algorithm) {
			for i := range procs {
				sawSelf[i] = true
			}
		}),
	}
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Procs {
		// With only self-loops, the only message each process hears is
		// its own: min stays its own proposal but history records one
		// transition, proving recv[self] was non-nil.
		mf := &p.(*probe).minFlood
		if len(mf.history) != 1 {
			t.Fatalf("proc %d history = %v", i, mf.history)
		}
	}
}

func TestStopWhen(t *testing.T) {
	calls := 0
	cfg := Config{
		Adversary:  complete(3),
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  100,
		StopWhen: func(r int, procs []Algorithm) bool {
			calls++
			return r == 4
		},
	}
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 || !res.Stopped {
		t.Fatalf("Rounds=%d Stopped=%v", res.Rounds, res.Stopped)
	}
	if calls != 4 {
		t.Fatalf("StopWhen called %d times", calls)
	}
}

func TestObserverSeesEveryRoundInOrder(t *testing.T) {
	var seen []int
	cfg := Config{
		Adversary:  complete(2),
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  5,
		Observer: ObserverFunc(func(r int, g *graph.Digraph, procs []Algorithm) {
			seen = append(seen, r)
		}),
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("observer rounds = %v", seen)
	}
	for i, r := range seen {
		if r != i+1 {
			t.Fatalf("observer rounds out of order: %v", seen)
		}
	}
}

func TestMultiObserver(t *testing.T) {
	var a, b int
	obs := MultiObserver{
		ObserverFunc(func(int, *graph.Digraph, []Algorithm) { a++ }),
		ObserverFunc(func(int, *graph.Digraph, []Algorithm) { b++ }),
	}
	cfg := Config{
		Adversary:  complete(2),
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  3,
		Observer:   obs,
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	if a != 3 || b != 3 {
		t.Fatalf("a=%d b=%d", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Adversary:  complete(2),
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  1,
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil adversary", func(c *Config) { c.Adversary = nil }},
		{"nil factory", func(c *Config) { c.NewProcess = nil }},
		{"zero rounds", func(c *Config) { c.MaxRounds = 0 }},
	}
	for _, tc := range cases {
		c := good
		tc.mutate(&c)
		if _, err := RunSequential(c); err == nil {
			t.Errorf("%s: RunSequential accepted invalid config", tc.name)
		}
	}
}

func TestGraphValidationMissingSelfLoop(t *testing.T) {
	g := graph.NewFullDigraph(3)
	g.AddSelfLoops()
	g.RemoveEdge(1, 1)
	cfg := Config{
		Adversary:  staticAdv{g: g},
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  2,
	}
	if _, err := RunSequential(cfg); err == nil {
		t.Fatal("missing self-loop accepted")
	}
}

func TestGraphValidationMissingNode(t *testing.T) {
	g := graph.NewDigraph(3)
	g.AddNode(0)
	g.AddNode(1)
	g.AddSelfLoops()
	cfg := Config{
		Adversary:  staticAdv{g: g},
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  1,
	}
	if _, err := RunSequential(cfg); err == nil {
		t.Fatal("missing node accepted")
	}
}

func TestGraphValidationWrongUniverse(t *testing.T) {
	bad := staticAdv{g: graph.CompleteDigraph(4)}
	cfg := Config{
		Adversary: struct {
			staticAdv
		}{bad},
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  1,
	}
	// Adversary says N=4 but we want to check mismatch; wrap N.
	cfg.Adversary = fakeN{inner: bad, n: 3}
	if _, err := RunSequential(cfg); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

type fakeN struct {
	inner Adversary
	n     int
}

func (f fakeN) N() int                     { return f.n }
func (f fakeN) Graph(r int) *graph.Digraph { return f.inner.Graph(r) }

func TestObserverSeesQuiescentState(t *testing.T) {
	// The observer must see post-transition state for the notified round:
	// at round r, exactly r transitions per process.
	cfg := Config{
		Adversary:  complete(3),
		NewProcess: func(int) Algorithm { return &minFlood{} },
		MaxRounds:  4,
		Observer: ObserverFunc(func(r int, _ *graph.Digraph, procs []Algorithm) {
			for i, p := range procs {
				if got := len(p.(*minFlood).history); got != r {
					t.Errorf("observer at round %d sees %d transitions for proc %d", r, got, i)
				}
			}
		}),
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
}

// decidingStub implements Decider for AllDecided tests.
type decidingStub struct {
	minFlood
	decideAt int
	decided  bool
	round    int
}

func (d *decidingStub) Transition(r int, recv []any) {
	d.minFlood.Transition(r, recv)
	if !d.decided && r >= d.decideAt {
		d.decided = true
		d.round = r
	}
}
func (d *decidingStub) Proposal() int64 { return d.min }
func (d *decidingStub) Decided() bool   { return d.decided }
func (d *decidingStub) Decision() (int64, int) {
	return d.min, d.round
}

func TestAllDecidedStop(t *testing.T) {
	cfg := Config{
		Adversary: complete(3),
		NewProcess: func(self int) Algorithm {
			return &decidingStub{decideAt: 2 + self}
		},
		MaxRounds: 50,
		StopWhen:  AllDecided,
	}
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Fatalf("Rounds = %d, want 4 (slowest process decides at 4)", res.Rounds)
	}
}

func TestAllDecidedFalseForNonDeciders(t *testing.T) {
	if AllDecided(1, []Algorithm{&minFlood{}}) {
		t.Fatal("AllDecided true for non-Decider")
	}
}

func TestInitCalledWithCorrectArgs(t *testing.T) {
	var inits []string
	cfg := Config{
		Adversary: complete(3),
		NewProcess: func(self int) Algorithm {
			return initProbe{record: &inits}
		},
		MaxRounds: 1,
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	want := []string{"0/3", "1/3", "2/3"}
	if len(inits) != len(want) {
		t.Fatalf("inits = %v", inits)
	}
	for i := range want {
		if inits[i] != want[i] {
			t.Fatalf("inits = %v, want %v", inits, want)
		}
	}
}

type initProbe struct {
	record *[]string
}

func (p initProbe) Init(self, n int)      { *p.record = append(*p.record, fmt.Sprintf("%d/%d", self, n)) }
func (p initProbe) Send(int) any          { return struct{}{} }
func (p initProbe) Transition(int, []any) {}
