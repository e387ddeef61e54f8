package wire

import (
	"bytes"
	"testing"

	"kset/internal/core"
	"kset/internal/graph"
)

// fuzzSeeds returns representative encoded messages for the fuzz corpus:
// both kinds, negative and large estimates, empty and dense graphs.
func fuzzSeeds() [][]byte {
	g1 := graph.NewLabeled(6)
	g1.AddNode(5)
	g2 := graph.NewLabeled(6)
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			g2.MergeEdge(u, v, 1+(u+v)%7)
		}
	}
	g3 := graph.NewLabeled(1)
	g3.MergeEdge(0, 0, 3)
	return [][]byte{
		AppendEncode(nil, core.Message{Kind: core.Prop, X: 1, G: g1}),
		AppendEncode(nil, core.Message{Kind: core.Decide, X: -1 << 40, G: g2}),
		AppendEncode(nil, core.Message{Kind: core.Prop, X: 0, G: g3}),
		{0x00}, // truncated after the kind byte
	}
}

// FuzzDecode feeds arbitrary bytes through Decode; every accepted input
// must re-encode canonically and round-trip to a semantically equal
// message, and no input may panic or over-allocate (the decoder bounds
// the universe and edge counts against the remaining input).
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := AppendEncode(nil, m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if m2.Kind != m.Kind || m2.X != m.X || !m2.G.Equal(m.G) {
			t.Fatalf("round-trip changed the message: %v vs %v", m, m2)
		}
		// Canonical form: encoding is deterministic, so a second
		// encoding of the decoded message must be byte-identical.
		if !bytes.Equal(re, AppendEncode(nil, m2)) {
			t.Fatal("encoding is not canonical")
		}
	})
}
