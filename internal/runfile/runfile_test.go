package runfile

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"kset/internal/adversary"
	"kset/internal/sim"
)

func TestRoundTripFigure1(t *testing.T) {
	orig := adversary.Figure1()
	got, err := Decode(Encode(orig))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != orig.N() || got.PrefixLen() != orig.PrefixLen() {
		t.Fatalf("shape mismatch: n=%d prefix=%d", got.N(), got.PrefixLen())
	}
	for r := 1; r <= orig.PrefixLen()+2; r++ {
		if !got.Graph(r).Equal(orig.Graph(r)) {
			t.Fatalf("round %d graph differs", r)
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(12)
		orig := adversary.RandomSources(n, 1+rng.Intn(n), rng.Intn(6), 0.4, rng)
		got, err := Decode(Encode(orig))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for r := 1; r <= orig.PrefixLen()+1; r++ {
			if !got.Graph(r).Equal(orig.Graph(r)) {
				t.Fatalf("n=%d round %d differs", n, r)
			}
		}
		if !got.StableSkeleton().Equal(orig.StableSkeleton()) {
			t.Fatal("stable skeleton differs after round-trip")
		}
	}
}

func TestReplayedRunProducesIdenticalDecisions(t *testing.T) {
	// The point of runfiles: a recorded counterexample must replay
	// bit-identically. Round-trip the E10 witness and re-run it.
	orig := adversary.ConsensusViolation()
	replayed, err := Decode(Encode(orig))
	if err != nil {
		t.Fatal(err)
	}
	props := adversary.ConsensusViolationProposals()
	a, err := sim.Execute(sim.Spec{Adversary: orig, Proposals: props})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Execute(sim.Spec{Adversary: replayed, Proposals: props})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] || a.DecideRounds[i] != b.DecideRounds[i] {
			t.Fatalf("p%d diverges on replay", i+1)
		}
	}
}

func TestWriteRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lb.ksr")
	orig := adversary.LowerBound(6, 3)
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.StableSkeleton().Equal(orig.StableSkeleton()) {
		t.Fatal("WriteFile/ReadFile mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	good := Encode(adversary.Figure1())
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Decode([]byte("XXXX")); err != errBadMagic {
		t.Fatalf("bad magic error = %v", err)
	}
	for cut := 4; cut < len(good); cut += 7 {
		if _, err := Decode(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeRejectsBadEdges(t *testing.T) {
	// magic + n=2 + prefix=0 + stable graph with out-of-range edge.
	buf := []byte{'K', 'S', 'R', '1', 2, 0, 1, 5, 0}
	if _, err := Decode(buf); err == nil {
		t.Fatal("out-of-universe edge accepted")
	}
	// Explicit self-loop (must be implied, not stored).
	buf = []byte{'K', 'S', 'R', '1', 2, 0, 1, 1, 1}
	if _, err := Decode(buf); err == nil {
		t.Fatal("explicit self-loop accepted")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	run := adversary.Figure1()
	if !bytes.Equal(Encode(run), Encode(run)) {
		t.Fatal("encoding not deterministic")
	}
}
