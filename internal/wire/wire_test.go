package wire

import (
	"math/rand"
	"testing"

	"kset/internal/core"
	"kset/internal/graph"
)

func randomMessage(rng *rand.Rand) core.Message {
	n := 1 + rng.Intn(12)
	g := graph.NewLabeled(n)
	for i := 0; i < rng.Intn(3*n); i++ {
		g.MergeEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(50))
	}
	for i := 0; i < rng.Intn(n); i++ {
		g.AddNode(rng.Intn(n)) // isolated nodes must survive round-trips
	}
	kind := core.Prop
	if rng.Intn(2) == 0 {
		kind = core.Decide
	}
	return core.Message{Kind: kind, X: rng.Int63n(1<<40) - (1 << 39), G: g}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		m := randomMessage(rng)
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("decode: %v (msg %v)", err, m)
		}
		if got.Kind != m.Kind || got.X != m.X || !got.G.Equal(m.G) {
			t.Fatalf("round-trip mismatch:\n in  %v x=%d\n out %v x=%d",
				m.G, m.X, got.G, got.X)
		}
	}
}

func TestEncodeCanonical(t *testing.T) {
	g1 := graph.NewLabeled(4)
	g1.MergeEdge(0, 1, 3)
	g1.MergeEdge(2, 3, 1)
	g2 := graph.NewLabeled(4)
	g2.MergeEdge(2, 3, 1)
	g2.MergeEdge(0, 1, 3)
	m1 := core.Message{Kind: core.Prop, X: 5, G: g1}
	m2 := core.Message{Kind: core.Prop, X: 5, G: g2}
	a, b := Encode(m1), Encode(m2)
	if string(a) != string(b) {
		t.Fatal("encoding not canonical")
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		m := randomMessage(rng)
		if EncodedSize(m) != len(Encode(m)) {
			t.Fatal("EncodedSize disagrees with Encode")
		}
	}
}

func TestAppendEncodeExtends(t *testing.T) {
	m := randomMessage(rand.New(rand.NewSource(3)))
	prefix := []byte{0xAA, 0xBB}
	buf := AppendEncode(prefix, m)
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatal("prefix clobbered")
	}
	got, err := Decode(buf[2:])
	if err != nil || !got.G.Equal(m.G) {
		t.Fatalf("decode after append failed: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	m := randomMessage(rand.New(rand.NewSource(4)))
	good := Encode(m)

	if _, err := Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Decode([]byte{7}); err == nil {
		t.Fatal("bad kind accepted")
	}
	for cut := 1; cut < len(good); cut++ {
		if _, err := Decode(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeRejectsBadEdges(t *testing.T) {
	// Handcraft: kind=0, x=0, n=1, bitmap=0x01, edges=1, edge (5,0,1).
	buf := []byte{0, 0, 1, 0x01, 1, 5, 0, 1}
	if _, err := Decode(buf); err == nil {
		t.Fatal("out-of-universe edge accepted")
	}
	// Zero label.
	buf = []byte{0, 0, 1, 0x01, 1, 0, 0, 0}
	if _, err := Decode(buf); err == nil {
		t.Fatal("zero label accepted")
	}
}

func TestEncodeNilGraphPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Encode(core.Message{Kind: core.Prop})
}

func TestNegativeXRoundTrip(t *testing.T) {
	g := graph.NewLabeled(1)
	g.AddNode(0)
	m := core.Message{Kind: core.Decide, X: -123456789, G: g}
	got, err := Decode(Encode(m))
	if err != nil || got.X != m.X || got.Kind != core.Decide {
		t.Fatalf("negative X round-trip: %v %d", err, got.X)
	}
}

func TestMeter(t *testing.T) {
	var mt Meter
	mt.Observe(10)
	mt.Observe(30)
	if mt.Messages != 2 || mt.TotalBytes != 40 || mt.MaxBytes != 30 {
		t.Fatalf("Meter = %+v", mt)
	}
	if mt.Avg() != 20 {
		t.Fatalf("Avg = %v", mt.Avg())
	}
	empty := Meter{}
	if empty.Avg() != 0 {
		t.Fatal("empty Avg should be 0")
	}
}

func TestSizeGrowsWithGraph(t *testing.T) {
	small := graph.NewLabeled(4)
	small.MergeEdge(0, 1, 1)
	big := graph.NewLabeled(4)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			big.MergeEdge(u, v, 1+u+v)
		}
	}
	sSmall := EncodedSize(core.Message{Kind: core.Prop, X: 0, G: small})
	sBig := EncodedSize(core.Message{Kind: core.Prop, X: 0, G: big})
	if sBig <= sSmall {
		t.Fatalf("size not monotone in edges: %d vs %d", sSmall, sBig)
	}
}

// TestDecodeIntoReusesGraph pins the runtime's scratch-reuse contract:
// decoding into a message whose graph has the matching universe keeps
// the same graph storage (no allocation), resets stale content, and
// produces exactly the Decode result; a universe mismatch reallocates.
func TestDecodeIntoReusesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch core.Message
	for trial := 0; trial < 300; trial++ {
		m := randomMessage(rng)
		buf := Encode(m)
		prevG := scratch.G
		if err := DecodeInto(buf, &scratch); err != nil {
			t.Fatalf("DecodeInto: %v", err)
		}
		if scratch.Kind != m.Kind || scratch.X != m.X || !scratch.G.Equal(m.G) {
			t.Fatalf("DecodeInto mismatch:\n in  %v x=%d\n out %v x=%d",
				m.G, m.X, scratch.G, scratch.X)
		}
		if prevG != nil && prevG.N() == m.G.N() && scratch.G != prevG {
			t.Fatalf("trial %d: matching universe %d did not reuse graph storage", trial, m.G.N())
		}
		if prevG != nil && prevG.N() != m.G.N() && scratch.G == prevG {
			t.Fatalf("trial %d: universe change %d -> %d kept old storage", trial, prevG.N(), m.G.N())
		}
	}
}

// TestDecodeIntoSteadyStateAllocs pins that repeated decodes of
// same-universe messages allocate nothing once the scratch graph exists.
func TestDecodeIntoSteadyStateAllocs(t *testing.T) {
	m := randomMessage(rand.New(rand.NewSource(9)))
	buf := Encode(m)
	var scratch core.Message
	if err := DecodeInto(buf, &scratch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(buf, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeInto allocates %.1f/op, want 0", allocs)
	}
}
