package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/sim"
	"kset/internal/transport"
)

// The tests in this file pin the rule by which a message reaches its
// receiver — the value itself on a link inside one mesh node, encoded
// bytes on every other — not the speed it buys: which links pay the
// codec, that both paths are the same run, and that a link the transport
// did not deliver stays undelivered however near the value is.

// countingCodec counts the calls a run makes into a family's codec.
type countingCodec struct {
	Codec
	encodes, decodes *atomic.Int64
}

func (c countingCodec) Encode(dst []byte, msg any) ([]byte, error) {
	c.encodes.Add(1)
	return c.Codec.Encode(dst, msg)
}

func (c countingCodec) NewDecoder(n int) algo.Decoder {
	return countingDecoder{c.Codec.NewDecoder(n), c.decodes}
}

type countingDecoder struct {
	algo.Decoder
	decodes *atomic.Int64
}

func (d countingDecoder) Decode(from int, payload []byte) (any, error) {
	d.decodes.Add(1)
	return d.Decoder.Decode(from, payload)
}

// TestCodecCallsPerRound pins which links pay the codec, exactly, on a
// complete schedule (every link delivers): none on the single-node mesh;
// on a grouped mesh every sender encodes once and every node decodes each
// remote sender once for all its receivers; fully distributed only the
// self link is local; and a transport the runtime cannot see into runs as
// it always did, one shared decode per sender.
func TestCodecCallsPerRound(t *testing.T) {
	tcp := func(n, nodes int) transport.Transport {
		tr, err := transport.NewTCPMeshLoopbackOpts(n, nodes, nil, transport.TCPOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, tc := range []struct {
		name             string
		n                int
		mesh             func() transport.Transport
		encodes, decodes int // per round
	}{
		{"inproc", 8, func() transport.Transport { return transport.NewInProc(8, nil) }, 0, 0},
		{"tcp n=8 on 2 nodes", 8, func() transport.Transport { return tcp(8, 2) }, 8, 8},
		{"tcp one node per process", 5, func() transport.Transport { return tcp(5, 5) }, 5, 5 * 4},
		{"not a mesh", 8, func() transport.Transport { return opaque{transport.NewInProc(8, nil)} }, 8, 8},
	} {
		for _, toDecision := range []bool{false, true} {
			var encodes, decodes atomic.Int64
			cfg := rounds.Config{
				Adversary:  adversary.Complete(tc.n),
				NewProcess: core.NewFactory(sim.SeqProposals(tc.n), core.Options{}),
				MaxRounds:  3 * tc.n,
			}
			if toDecision {
				cfg.StopWhen = rounds.AllDecided
			}
			res, err := Run(cfg, tc.mesh(), countingCodec{algo.MustLookup(algo.KSet).Codec, &encodes, &decodes})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.Stopped != toDecision {
				t.Fatalf("%s: Stopped = %v after %d rounds", tc.name, res.Stopped, res.Rounds)
			}
			if e, d := int(encodes.Load()), int(decodes.Load()); e != tc.encodes*res.Rounds || d != tc.decodes*res.Rounds {
				t.Errorf("%s, to decision %v: %d Encode and %d Decode calls over %d rounds, want %d and %d a round",
					tc.name, toDecision, e, d, res.Rounds, tc.encodes, tc.decodes)
			}
		}
	}
}

// TestByValueEqualsByBytes is the differential between the two content
// paths of a co-located link: the same run — decisions, decide rounds,
// Rounds/Stopped, wire meter, realized heard-sets, observer sequence —
// whether the receivers of a sender's own node take its Send value or
// decode its bytes, for both families, inline and one worker per process,
// pipelined and not, all links local (in-proc) and half of them (TCP on 2
// nodes). The race lane keeps the rows where a reader really runs beside
// its sender's next Send: one worker per process, pipelined.
func TestByValueEqualsByBytes(t *testing.T) {
	const n = 9
	for name, spec := range liveSchedules(n) {
		for _, kind := range []string{"inproc", "tcp"} {
			for _, workers := range []int{1, n} {
				if (testing.Short() || raceEnabled) && (workers == 1 || !spec.RunToCompletion) {
					continue
				}
				want := executeLive(t, spec, kind, workers, true)
				if got := executeLive(t, spec, kind, workers, false); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s workers=%d: by-value run differs from the by-bytes run\n got %+v\nwant %+v", name, kind, workers, got, want)
				}
			}
		}
	}
}

// hearingAlg records whom it heard, round by round, and checks that what
// it heard is the sender's message of that round.
type hearingAlg struct {
	countingAlg
	t     *testing.T
	heard [][]bool // [r-1][q]
}

func (a *hearingAlg) Transition(r int, recv []any) {
	row := make([]bool, len(recv))
	for q, m := range recv {
		if row[q] = m != nil; row[q] && !reflect.DeepEqual(m, []byte{byte(q), byte(r)}) {
			a.t.Errorf("p%d round %d: message from p%d is %v", a.self+1, r, q+1, m)
		}
	}
	a.heard = append(a.heard, row)
}

// TestDroppedLocalLinkStaysDropped: on the single-node mesh every
// sender's value sits in the memory its receivers read from, and still a
// receiver sees exactly the links the transport delivered — a schedule
// drop, a crash cut outside the Partial set and the silence after an
// announced death all arrive as nil.
func TestDroppedLocalLinkStaysDropped(t *testing.T) {
	const n, maxRounds = 6, 8
	sched := adversary.MaterializeRun(adversary.RandomSources(n, 2, maxRounds/2, 0.3, rand.New(rand.NewSource(19))), maxRounds)
	partial := make([]graph.NodeSet, n)
	partial[1] = graph.NewNodeSet(n)
	partial[1].Add(0)
	partial[1].Add(4)
	for _, tc := range []struct {
		name string
		adv  *adversary.Run
		plan *CrashPlan
	}{
		{"schedule drops", sched, nil},
		{"mid-send crash", adversary.MaterializeRun(adversary.Complete(n), maxRounds), &CrashPlan{
			Round: []int{0, 3, 0, 0, 0, 0}, Site: []CrashSite{0, CrashMidSend, 0, 0, 0, 0}, Partial: partial, Notify: true}},
		{"announced death", adversary.MaterializeRun(adversary.Complete(n), maxRounds), &CrashPlan{
			Round: []int{0, 0, 2, 0, 0, 0}, Site: make([]CrashSite, n), Notify: true}},
	} {
		for _, pipelined := range []bool{true, false} {
			if pipelined && tc.plan != nil {
				continue // a crash plan is never pipelined
			}
			cfg := rounds.Config{
				Adversary:  tc.adv,
				NewProcess: func(int) rounds.Algorithm { return &hearingAlg{t: t} },
				MaxRounds:  maxRounds,
			}
			if !pipelined {
				cfg.StopWhen = func(int, []rounds.Algorithm) bool { return false }
			}
			var pol transport.Policy = transport.NewSchedule(tc.adv)
			if tc.plan != nil {
				pol = crashCut{inner: pol, plan: tc.plan}
			}
			res, err := runChaos(cfg, transport.NewInProc(n, pol), rawCodec{}, tc.plan, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			dropped := 0
			for p, proc := range res.Procs {
				heard := proc.(*hearingAlg).heard
				last := maxRounds
				if tc.plan != nil && tc.plan.Round[p] != 0 {
					last = tc.plan.Round[p] - 1 // a crashed process transitions no more
				}
				if len(heard) != last {
					t.Fatalf("%s: p%d transitioned %d rounds, want %d", tc.name, p+1, len(heard), last)
				}
				for r := 1; r <= last; r++ {
					for q := 0; q < n; q++ {
						sent := graph.FullNodeSet(n)
						tc.plan.cut(r, q, sent)
						want := tc.adv.Graph(r).HasEdge(q, p) && (q == p || sent.Has(p))
						if !want {
							dropped++
						}
						if heard[r-1][q] != want {
							t.Errorf("%s pipelined=%v: round %d, p%d heard p%d: %v, want %v", tc.name, pipelined, r, p+1, q+1, heard[r-1][q], want)
						}
					}
				}
			}
			if dropped == 0 {
				t.Fatalf("%s: no link was dropped, the test is vacuous", tc.name)
			}
		}
	}
}

// failingCodec's decoders refuse sender `from` from their at-th message
// of it on.
type failingCodec struct {
	Codec
	from, at int
	err      error
}

func (c failingCodec) NewDecoder(n int) algo.Decoder {
	return &failingDecoder{Decoder: c.Codec.NewDecoder(n), c: c}
}

type failingDecoder struct {
	algo.Decoder
	c    failingCodec
	seen int
}

func (d *failingDecoder) Decode(from int, payload []byte) (any, error) {
	if from == d.c.from {
		if d.seen++; d.seen >= d.c.at {
			return nil, d.c.err
		}
	}
	return d.Decoder.Decode(from, payload)
}

// TestDecodeErrorNamesLinkAndRound: a message that does not decode ends
// the run with an error that says where — receiver, sender and round —
// like every Broadcast and Gather failure beside it. On 2 TCP nodes p4 is
// remote to p1, who decodes it first every round for its whole node.
func TestDecodeErrorNamesLinkAndRound(t *testing.T) {
	const n = 4
	planted := errors.New("planted decode failure")
	tr, err := transport.NewTCPMeshLoopbackOpts(n, 2, nil, transport.TCPOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rounds.Config{
		Adversary:  adversary.Complete(n),
		NewProcess: func(int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  10,
	}
	_, err = Run(cfg, tr, failingCodec{Codec: rawCodec{}, from: 3, at: 3, err: planted})
	want := fmt.Sprintf("runtime: p1 round 3: decoding p4's message: %v", planted)
	if !errors.Is(err, planted) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run returned %q, want %q", err, want)
	}
}
