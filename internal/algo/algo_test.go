package algo_test

// Registry seam tests: the contract is that a broken family is rejected
// loudly at registration time (structural checks + the probe self-test)
// or surfaces at first use (oracle verdicts through CheckAlgorithm) —
// never silently misbehaves rounds deep inside a run. The fakes here
// are deliberately broken in exactly the ways the self-test exists to
// catch.

import (
	"encoding/binary"
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/rounds"
	"kset/internal/sim"
)

// echoMsg/echoProc/echoCodec are a minimal valid family: broadcast your
// value, adopt the minimum heard, decide it in round 2.
type echoMsg struct{ v int64 }

type echoProc struct {
	self, n  int
	proposal int64
	val      int64
	decided  bool
	dr       int
	out      [2]echoMsg
}

func (p *echoProc) Init(self, n int) { p.self, p.n = self, n; p.val = p.proposal }

func (p *echoProc) Send(r int) any {
	m := &p.out[r&1]
	m.v = p.val
	return m
}

func (p *echoProc) Transition(r int, recv []any) {
	for _, raw := range recv {
		if raw == nil {
			continue
		}
		if m := raw.(*echoMsg); m.v < p.val {
			p.val = m.v
		}
	}
	if r == 2 && !p.decided {
		p.decided = true
		p.dr = r
	}
}

func (p *echoProc) Proposal() int64        { return p.proposal }
func (p *echoProc) Decided() bool          { return p.decided }
func (p *echoProc) Decision() (int64, int) { return p.val, p.dr }

type echoCodec struct {
	// corruptDecode makes the decoder return a different value than was
	// encoded, so decode→re-encode is not byte-identical — the
	// round-trip mismatch the self-test must catch.
	corruptDecode bool
}

func (c echoCodec) Encode(dst []byte, msg any) ([]byte, error) {
	m := msg.(*echoMsg)
	return binary.AppendVarint(dst, m.v), nil
}

func (c echoCodec) NewDecoder(n int) algo.Decoder {
	return &echoDecoder{msgs: make([]echoMsg, n), corrupt: c.corruptDecode}
}

type echoDecoder struct {
	msgs    []echoMsg
	corrupt bool
}

func (d *echoDecoder) Decode(from int, payload []byte) (any, error) {
	v, _ := binary.Varint(payload)
	m := &d.msgs[from]
	m.v = v
	if d.corrupt {
		m.v = v + 1
	}
	return m, nil
}

// echoFamily returns a fully valid registration under the given name;
// tests break one field at a time.
func echoFamily(name string) *algo.Algorithm {
	return &algo.Algorithm{
		Name:  name,
		Codec: echoCodec{},
		Prepare: func(run *algo.Run) error {
			return nil
		},
		NewFactory: func(run algo.Run) (func(int) rounds.Algorithm, error) {
			props := run.Proposals
			return func(self int) rounds.Algorithm {
				return &echoProc{proposal: props[self]}
			}, nil
		},
		MaxRounds:  func(run algo.Run) int { return 4 },
		Probe:      func() algo.Run { return algo.Run{N: 2, Proposals: []int64{3, 9}} },
		FuzzTarget: "internal/algo:FuzzEcho",
	}
}

func TestRegisterValidEcho(t *testing.T) {
	if err := algo.Register(echoFamily("echo-ok")); err != nil {
		t.Fatalf("valid family rejected: %v", err)
	}
	defer algo.Unregister("echo-ok")
	if _, err := algo.Lookup("echo-ok"); err != nil {
		t.Fatal(err)
	}
	if err := algo.Register(echoFamily("echo-ok")); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate registration: got %v", err)
	}
}

func TestRegisterRejectsStructuralBreakage(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(a *algo.Algorithm)
		want   string
	}{
		{"bad name", func(a *algo.Algorithm) { a.Name = "No Spaces!" }, "invalid algorithm name"},
		{"nil codec", func(a *algo.Algorithm) { a.Codec = nil }, "nil Codec"},
		{"nil prepare", func(a *algo.Algorithm) { a.Prepare = nil }, "nil Prepare"},
		{"nil factory", func(a *algo.Algorithm) { a.NewFactory = nil }, "nil NewFactory"},
		{"nil maxrounds", func(a *algo.Algorithm) { a.MaxRounds = nil }, "nil MaxRounds"},
		{"nil probe", func(a *algo.Algorithm) { a.Probe = nil }, "nil Probe"},
		{"no fuzz target", func(a *algo.Algorithm) { a.FuzzTarget = "" }, "fuzz target"},
		// Outcomes are read through rounds.Decider (trace.Collect) only.
		{"non-decider", func(a *algo.Algorithm) {
			a.NewFactory = func(algo.Run) (func(int) rounds.Algorithm, error) {
				return func(int) rounds.Algorithm { return struct{ rounds.Algorithm }{&echoProc{}} }, nil
			}
		}, "not a rounds.Decider"},
	}
	for _, c := range cases {
		a := echoFamily("echo-broken")
		c.mutate(a)
		err := algo.Register(a)
		if err == nil {
			algo.Unregister("echo-broken")
			t.Errorf("%s: registration accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestRegisterRejectsNilSend(t *testing.T) {
	a := echoFamily("echo-nilsend")
	a.NewFactory = func(run algo.Run) (func(int) rounds.Algorithm, error) {
		return func(self int) rounds.Algorithm { return nilSendProc{} }, nil
	}
	err := algo.Register(a)
	if err == nil {
		algo.Unregister("echo-nilsend")
		t.Fatal("family whose Send returns nil was registered")
	}
	if !strings.Contains(err.Error(), "Send(1) returned nil") {
		t.Fatalf("error %q does not name the nil send", err)
	}
}

type nilSendProc struct{}

func (nilSendProc) Init(self, n int)           {}
func (nilSendProc) Send(r int) any             { return nil }
func (nilSendProc) Transition(r int, rv []any) {}
func (nilSendProc) Proposal() int64            { return 0 }
func (nilSendProc) Decided() bool              { return false }
func (nilSendProc) Decision() (int64, int)     { return 0, 0 }

func TestRegisterRejectsRoundTripMismatch(t *testing.T) {
	a := echoFamily("echo-corrupt")
	a.Codec = echoCodec{corruptDecode: true}
	err := algo.Register(a)
	if err == nil {
		algo.Unregister("echo-corrupt")
		t.Fatal("codec that does not round-trip was registered")
	}
	if !strings.Contains(err.Error(), "round-trip mismatch") {
		t.Fatalf("error %q does not name the round-trip mismatch", err)
	}
}

// singleBufferProc breaks the lifetime rule of rounds.Algorithm.Send: one
// buffer serves every round, so Send(2) rewrites the round-1 value a
// co-located receiver may still be reading.
type singleBufferProc struct{ echoProc }

func (p *singleBufferProc) Send(r int) any {
	p.out[0].v = p.val
	return &p.out[0]
}

func TestRegisterRejectsSingleBufferSender(t *testing.T) {
	a := echoFamily("echo-onebuffer")
	a.NewFactory = func(run algo.Run) (func(int) rounds.Algorithm, error) {
		return func(self int) rounds.Algorithm {
			return &singleBufferProc{echoProc{proposal: run.Proposals[self]}}
		}, nil
	}
	err := algo.Register(a)
	if err == nil {
		algo.Unregister("echo-onebuffer")
		t.Fatal("family whose Send reuses one buffer in consecutive rounds was registered")
	}
	// p2 proposes 9 and hears p1's 3 in the probe round: its Send(2)
	// turns the round-1 message from 9 into 3.
	if !strings.Contains(err.Error(), "p2's Send(1) value changed") {
		t.Fatalf("error %q does not name the rewritten message", err)
	}
}

func TestRegisterRejectsForeignDecodePanic(t *testing.T) {
	// A codec whose decoder hands back the wrong message type makes the
	// family's Transition assertion panic; the self-test converts that
	// into a registration error instead of letting it kill a process
	// goroutine mid-run.
	a := echoFamily("echo-foreign")
	a.Codec = foreignCodec{}
	err := algo.Register(a)
	if err == nil {
		algo.Unregister("echo-foreign")
		t.Fatal("codec decoding to a foreign type was registered")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error %q does not surface the panic", err)
	}
}

type foreignCodec struct{}

func (foreignCodec) Encode(dst []byte, msg any) ([]byte, error) { return append(dst, 1), nil }
func (foreignCodec) NewDecoder(n int) algo.Decoder              { return foreignDecoder{} }

type foreignDecoder struct{}

func (foreignDecoder) Decode(from int, payload []byte) (any, error) { return "not an echoMsg", nil }

// TestFireDrillOracle registers a family whose oracle always fires and
// proves the verdict surfaces at first use through CheckAlgorithm —
// the same seam internal/check and ksetd read, so a real violation
// cannot be silently swallowed between layers.
func TestFireDrillOracle(t *testing.T) {
	a := echoFamily("echo-firedrill")
	a.Check = func(run algo.Run, f algo.Facts) []algo.Violation {
		return []algo.Violation{{Oracle: "fire-drill", Detail: "deliberately broken oracle fired"}}
	}
	if err := algo.Register(a); err != nil {
		t.Fatal(err)
	}
	defer algo.Unregister("echo-firedrill")

	out, err := sim.Execute(sim.Spec{
		Adversary: adversary.Complete(3),
		Algorithm: "echo-firedrill",
		Proposals: []int64{5, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	viols := out.CheckAlgorithm()
	if len(viols) != 1 || viols[0].Oracle != "fire-drill" {
		t.Fatalf("fire-drill oracle verdict lost: %v", viols)
	}
	// The run itself executed: min-echo decides the minimum everywhere.
	for i := 0; i < out.N; i++ {
		if !out.Decided[i] || out.Decisions[i] != 1 {
			t.Fatalf("p%d decided (%v, %d), want min proposal 1", i+1, out.Decided[i], out.Decisions[i])
		}
	}
}

func TestLookupUnknownListsNames(t *testing.T) {
	_, err := algo.Lookup("no-such-family")
	if err == nil {
		t.Fatal("unknown name resolved")
	}
	for _, want := range []string{"kset", "approx", "registered:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if alg, err := algo.Lookup(""); err != nil || alg.Name != algo.Default {
		t.Fatalf("empty name: got (%v, %v), want the default family", alg, err)
	}
}

// TestBuiltinCodecAllocs re-pins the decode-into-scratch contract for
// every registered family: steady-state encode+decode through the
// family's own codec allocates nothing.
func TestBuiltinCodecAllocs(t *testing.T) {
	for _, name := range algo.Names() {
		alg := algo.MustLookup(name)
		run := alg.Probe()
		run.Algorithm = name
		if err := alg.Prepare(&run); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		factory, err := alg.NewFactory(run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := factory(0)
		p.Init(0, run.N)
		msg := p.Send(1)
		dec := alg.Codec.NewDecoder(run.N)
		buf := make([]byte, 0, 4096)
		// Warm-up: the first decode may size per-sender scratch.
		if buf, err = alg.Codec.Encode(buf[:0], msg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := dec.Decode(0, buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			b, err := alg.Codec.Encode(buf[:0], msg)
			if err != nil {
				t.Fatal(err)
			}
			buf = b
			if _, err := dec.Decode(0, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state encode+decode allocates %.1f per round, want 0", name, allocs)
		}
	}
}
