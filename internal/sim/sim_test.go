package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/baseline"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/wire"
)

func TestExecuteFigure1(t *testing.T) {
	out, err := Execute(Spec{
		Adversary: adversary.Figure1(),
		Proposals: SeqProposals(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Check(3); err != nil {
		t.Fatal(err)
	}
	if out.RootComps != 2 || out.MinK != 3 {
		t.Fatalf("RootComps=%d MinK=%d, want 2/3", out.RootComps, out.MinK)
	}
	if out.RST != 3 {
		t.Fatalf("RST = %d, want 3", out.RST)
	}
	if out.Rounds != 8 {
		t.Fatalf("Rounds = %d, want 8 (stops when all decided)", out.Rounds)
	}
	if !out.Skeleton.Equal(adversary.Figure1StableSkeleton()) {
		t.Fatal("skeleton mismatch")
	}
}

func TestExecuteMeterCountsAllMessages(t *testing.T) {
	out, err := Execute(Spec{
		Adversary:     adversary.Figure1(),
		Proposals:     SeqProposals(6),
		MeterMessages: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := 6 * out.Rounds // every process broadcasts once per round
	if out.Meter.Messages != wantMsgs {
		t.Fatalf("Messages = %d, want %d", out.Meter.Messages, wantMsgs)
	}
	if out.Meter.MaxBytes <= 0 || out.Meter.Avg() <= 0 {
		t.Fatal("meter recorded nothing")
	}
}

// sizedProc is Algorithm 1 with every outgoing message sized by the
// wire format itself — the independent yardstick for the meter.
type sizedProc struct {
	*core.Process
	sizes *[]int
}

func (p sizedProc) Send(r int) any {
	msg := p.Process.Send(r)
	*p.sizes = append(*p.sizes, len(wire.AppendEncode(nil, *msg.(*core.Message))))
	return msg
}

// TestMeterMatchesWireFormat pins the E5 numbers against internal/wire
// rather than against the metering wrapper: a kset run's Meter is the
// count, sum and max of the wire encodings of every message sent.
func TestMeterMatchesWireFormat(t *testing.T) {
	const n = 7
	mkAdv := func() rounds.Adversary {
		return adversary.RandomSources(n, 2, 5, 0.3, rand.New(rand.NewSource(21)))
	}
	out, err := Execute(Spec{Adversary: mkAdv(), Proposals: SeqProposals(n), MeterMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	inner := core.NewFactory(SeqProposals(n), core.Options{})
	ref, err := Execute(Spec{
		Adversary: mkAdv(),
		NewProcess: func(self int) rounds.Algorithm {
			return sizedProc{Process: inner(self).(*core.Process), sizes: &sizes}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds != out.Rounds {
		t.Fatalf("reference run took %d rounds, metered run %d", ref.Rounds, out.Rounds)
	}
	var want wire.Meter
	for _, sz := range sizes {
		want.Observe(sz)
	}
	if out.Meter != want {
		t.Fatalf("Meter = %+v, wire format says %+v", out.Meter, want)
	}
}

// TestMeteredRunShowsOwnProcesses: only the executor sees the metering
// wrapper — for every registered family, the observers of a metered run
// get the family's own process type in every round, so their type
// assertions (internal/check's oracles, the E15 stale-edge meter, -trace) hold.
func TestMeteredRunShowsOwnProcesses(t *testing.T) {
	for _, name := range algo.Names() {
		alg := algo.MustLookup(name)
		run := alg.Probe()
		if err := alg.Prepare(&run); err != nil {
			t.Fatal(err)
		}
		factory, err := alg.NewFactory(run)
		if err != nil {
			t.Fatal(err)
		}
		own := reflect.TypeOf(factory(0))
		observed := 0
		out, err := Execute(Spec{
			Adversary:     adversary.Complete(run.N),
			Algorithm:     name,
			Proposals:     run.Proposals,
			Params:        run.Params,
			MeterMessages: true,
			Observer: rounds.ObserverFunc(func(r int, _ *graph.Digraph, procs []rounds.Algorithm) {
				observed++
				for i, p := range procs {
					if got := reflect.TypeOf(p); got != own {
						t.Errorf("%s round %d: observer sees p%d as %v, want %v", name, r, i+1, got, own)
					}
				}
			}),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if observed != out.Rounds || out.Meter.Messages != run.N*out.Rounds {
			t.Fatalf("%s: observed %d of %d rounds, metered %d messages", name, observed, out.Rounds, out.Meter.Messages)
		}
	}
}

func TestExecuteBaselineOverride(t *testing.T) {
	n := 5
	out, err := Execute(Spec{
		Adversary:  adversary.Complete(n),
		NewProcess: baseline.NewFloodMinFactory(SeqProposals(n), 0, 1),
		MaxRounds:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Check(1); err != nil {
		t.Fatal(err)
	}
	if out.Rounds != 1 {
		t.Fatalf("FloodMin f=0 should finish in 1 round, took %d", out.Rounds)
	}
}

func TestExecuteRunToCompletion(t *testing.T) {
	out, err := Execute(Spec{
		Adversary:       adversary.Figure1(),
		Proposals:       SeqProposals(6),
		MaxRounds:       20,
		RunToCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds != 20 {
		t.Fatalf("Rounds = %d, want full 20", out.Rounds)
	}
}

func TestExecuteValidation(t *testing.T) {
	if _, err := Execute(Spec{}); err == nil {
		t.Fatal("nil adversary accepted")
	}
	if _, err := Execute(Spec{Adversary: adversary.Complete(3), Proposals: SeqProposals(2)}); err == nil {
		t.Fatal("proposal length mismatch accepted")
	}
}

func TestExecuteDefaultBoundNonStabilizer(t *testing.T) {
	ch := adversary.NewChurn(adversary.Figure1StableSkeleton(), 0.1, 5)
	out, err := Execute(Spec{Adversary: ch, Proposals: SeqProposals(6)})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.CheckTermination(); err != nil {
		t.Fatal(err)
	}
	// Churn has no exact StableSkeleton method; sim falls back to the
	// tracker's skeleton, which converges to the core.
	if out.MinK < 1 {
		t.Fatal("MinK not computed")
	}
}

func TestSweepPreservesOrderAndParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var specs []Spec
	var wantK []int
	for i := 0; i < 12; i++ {
		k := 2 + rng.Intn(3)
		n := k + 2 + rng.Intn(3)
		specs = append(specs, Spec{
			Adversary: adversary.LowerBound(n, k),
			Proposals: SeqProposals(n),
		})
		wantK = append(wantK, k)
	}
	for _, workers := range []int{0, 1, 4} {
		next := 0
		err := sweepSpecs(specs, workers, func(cell int, out *Outcome) error {
			if cell != next {
				t.Fatalf("workers=%d: cell %d delivered, want %d", workers, cell, next)
			}
			next++
			if got := len(out.DistinctDecisions()); got != wantK[cell] {
				t.Fatalf("workers=%d spec %d: %d decisions, want %d",
					workers, cell, got, wantK[cell])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != len(specs) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, next, len(specs))
		}
	}
}

// sweepSpecs streams a fixed spec list, one spec per shard so that up to
// `workers` of them execute concurrently.
func sweepSpecs(specs []Spec, workers int, on func(cell int, out *Outcome) error) error {
	return sweep(len(specs), workers, 1,
		func(cell int) (*Outcome, error) { return Execute(specs[cell]) }, on)
}

func TestSweepPropagatesError(t *testing.T) {
	specs := []Spec{
		{Adversary: adversary.Complete(2), Proposals: SeqProposals(2)},
		{}, // invalid
	}
	ok := func(int, *Outcome) error { return nil }
	if err := sweepSpecs(specs, 2, ok); err == nil {
		t.Fatal("error not propagated")
	}
	if err := sweepSpecs(specs, 1, ok); err == nil {
		t.Fatal("error not propagated sequentially")
	}
}

func TestMeteredProcStillDecider(t *testing.T) {
	// The metering wrapper must keep the Decider interface visible.
	out, err := Execute(Spec{
		Adversary:     adversary.Complete(3),
		Proposals:     SeqProposals(3),
		MeterMessages: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.CheckTermination(); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("E0: demo", "n", "k", "mean")
	tb.AddRow(4, 2, 1.5)
	tb.AddRow(16, 3, 2.25)
	s := tb.Render()
	for _, want := range []string{"E0: demo", "n", "mean", "1.50", "2.25", "16"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Render missing %q:\n%s", want, s)
		}
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow(1)
}
