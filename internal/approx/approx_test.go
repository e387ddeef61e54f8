package approx

import (
	"bytes"
	"testing"
)

func TestPhaseLen(t *testing.T) {
	cases := []struct{ n, want int }{{1, 1}, {2, 1}, {3, 2}, {6, 5}, {64, 63}}
	for _, c := range cases {
		if got := PhaseLen(c.n); got != c.want {
			t.Errorf("PhaseLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestDecideRoundFor(t *testing.T) {
	for _, n := range []int{2, 3, 6, 9} {
		for _, v := range []int{1, 2, 7, 64} {
			for _, stab := range []int{0, 1, 2, 5, 13} {
				l := PhaseLen(n)
				d := DecideRoundFor(n, v, stab)
				if d < 1 || d%l != 0 {
					t.Fatalf("DecideRoundFor(%d,%d,%d) = %d, not a positive multiple of %d", n, v, stab, d, l)
				}
				// PhasesFor(v) whole phases lie at or after the stabilization
				// round: the first of those phases starts no earlier than stab.
				firstStable := d - phasesFor(v)*l + 1
				if s := stab; s >= 1 && firstStable < s {
					t.Fatalf("DecideRoundFor(%d,%d,%d) = %d leaves phase start %d before stabilization",
						n, v, stab, d, firstStable)
				}
			}
		}
	}
	if d := DecideRoundFor(6, 7, 1); d != phasesFor(7)*5 {
		t.Errorf("stab=1 should need exactly PhasesFor(v) phases, got round %d", d)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	var o Options
	if err := o.Normalize(6, []int64{1, 2, 3, 4, 5, 6}, 4, true); err != nil {
		t.Fatal(err)
	}
	if o.Graph.Shape != Path || o.Graph.V != 7 {
		t.Errorf("defaults: got %+v, want path on n+1 vertices", o.Graph)
	}
	if o.DecideRound != DecideRoundFor(6, 7, 4) {
		t.Errorf("DecideRound = %d, want DecideRoundFor bound %d", o.DecideRound, DecideRoundFor(6, 7, 4))
	}
	if err := o.Normalize(6, []int64{1, 2, 3, 4, 5, 6}, 4, true); err != nil {
		t.Fatalf("Normalize is not idempotent: %v", err)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name      string
		opts      Options
		n         int
		proposals []int64
	}{
		{"bad shape", Options{Graph: Graph{Shape: "torus"}}, 4, nil},
		{"zero processes", Options{}, 0, nil},
		{"too many vertices", Options{Graph: Graph{V: maxVertices + 1}}, 4, nil},
		{"tiny cycle", Options{Graph: Graph{Shape: Cycle, V: 2}}, 4, nil},
		{"proposal below range", Options{}, 3, []int64{-1, 0, 1}},
		{"proposal above range", Options{Graph: Graph{V: 4}}, 3, []int64{0, 1, 4}},
		{"unaligned decide round", Options{DecideRound: 7}, 4, []int64{0, 1, 2}},
		{"negative decide round", Options{DecideRound: -3}, 4, []int64{0, 1, 2}},
	}
	for _, c := range cases {
		if err := c.opts.Normalize(c.n, c.proposals, 1, true); err == nil {
			t.Errorf("%s: Normalize accepted %+v", c.name, c.opts)
		}
	}
}

func TestDist(t *testing.T) {
	path := Graph{Shape: Path, V: 10}
	cyc := Graph{Shape: Cycle, V: 10}
	if d := Dist(path, 2, 9); d != 7 {
		t.Errorf("path dist = %d, want 7", d)
	}
	if d := Dist(cyc, 2, 9); d != 3 {
		t.Errorf("cycle dist = %d, want 3 (wrap)", d)
	}
	if d := Dist(cyc, 4, 4); d != 0 {
		t.Errorf("self dist = %d", d)
	}
}

func TestSpan(t *testing.T) {
	path := Graph{Shape: Path, V: 10}
	if s, l := Span(path, []int64{3, 7, 5}); s != 3 || l != 4 {
		t.Errorf("path span = (%d,%d), want (3,4)", s, l)
	}
	cyc := Graph{Shape: Cycle, V: 10}
	// {8, 9, 0, 1} wraps: minimal arc starts at 8, length 3.
	if s, l := Span(cyc, []int64{9, 1, 8, 0}); s != 8 || l != 3 {
		t.Errorf("cycle span = (%d,%d), want (8,3)", s, l)
	}
	if s, l := Span(cyc, []int64{4}); s != 4 || l != 0 {
		t.Errorf("singleton span = (%d,%d), want (4,0)", s, l)
	}
	for _, v := range []int64{8, 9, 0, 1} {
		if !InSpan(cyc, 8, 3, v) {
			t.Errorf("vertex %d missing from arc [8,+3]", v)
		}
	}
	for _, v := range []int64{2, 5, 7} {
		if InSpan(cyc, 8, 3, v) {
			t.Errorf("vertex %d wrongly inside arc [8,+3]", v)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	msgs := []Message{
		{},
		{lo: 0, hi: 0, decided: true},
		{lo: -3 * scale, hi: 5 * scale},
		{lo: 12345678, hi: 12345678},
		{lo: -maxAbs, hi: 0},
		{lo: 0, hi: maxAbs},
	}
	for _, m := range msgs {
		enc := AppendEncode(nil, m)
		var got Message
		if err := DecodeInto(enc, &got); err != nil {
			t.Fatalf("DecodeInto(%+v): %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip changed %+v into %+v", m, got)
		}
		if re := AppendEncode(nil, got); !bytes.Equal(enc, re) {
			t.Fatalf("re-encode of %+v not canonical: %x vs %x", m, enc, re)
		}
	}
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	good := AppendEncode(nil, Message{lo: scale, hi: 2 * scale})
	bad := [][]byte{
		nil,
		{},
		{2},             // unknown flag
		{0},             // missing varints
		{0, 0x80},       // truncated varint
		append(good, 0), // trailing byte
		AppendEncode(nil, Message{lo: maxAbs + 1, hi: maxAbs + 1}), // position out of range
		AppendEncode(nil, Message{lo: 0, hi: maxAbs + 1}),          // width out of range
	}
	var m Message
	for i, buf := range bad {
		if err := DecodeInto(buf, &m); err == nil {
			t.Errorf("case %d: DecodeInto accepted %x", i, buf)
		}
	}
}

func TestCodecSteadyStateAllocs(t *testing.T) {
	m := Message{lo: -2 * scale, hi: 3 * scale, decided: true}
	buf := make([]byte, 0, 64)
	var out Message
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendEncode(buf[:0], m)
		if err := DecodeInto(buf, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("encode+decode allocates %.1f per round, want 0", allocs)
	}
}
