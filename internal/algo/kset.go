package algo

import (
	"fmt"

	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/wire"
)

// KSet is the registered name of Algorithm 1 (k-set agreement with
// stable skeleton graphs) — the stack's default family.
const KSet = "kset"

// ksetCodec carries Algorithm 1 messages in the canonical internal/wire
// encoding — the same bytes the E5 bit-complexity experiment meters.
type ksetCodec struct{}

// Encode implements Codec; msg is what core.Process.Send returns.
func (ksetCodec) Encode(dst []byte, msg any) ([]byte, error) {
	m, ok := msg.(*core.Message)
	if !ok {
		return nil, fmt.Errorf("algo: kset codec cannot encode %T", msg)
	}
	return wire.AppendEncode(dst, *m), nil
}

// NewDecoder implements Codec.
func (ksetCodec) NewDecoder(n int) Decoder {
	return &ksetDecoder{msgs: make([]core.Message, n)}
}

// ksetDecoder keeps one scratch message per sender, so steady-state
// decoding reuses graph storage (wire.DecodeInto) instead of allocating
// a fresh Θ(n²) graph per message per round — the Decoder scratch
// contract.
type ksetDecoder struct {
	msgs []core.Message
}

// Decode implements Decoder.
func (d *ksetDecoder) Decode(from int, payload []byte) (any, error) {
	if from < 0 || from >= len(d.msgs) {
		return nil, fmt.Errorf("algo: decode from out-of-range sender %d", from)
	}
	m := &d.msgs[from]
	if err := wire.DecodeInto(payload, m); err != nil {
		return nil, fmt.Errorf("algo: decode message from p%d: %w", from+1, err)
	}
	return m, nil
}

// ksetOpts coerces a Run's Params into core.Options (nil = defaults).
func ksetOpts(params any) (core.Options, error) {
	switch v := params.(type) {
	case nil:
		return core.Options{}, nil
	case core.Options:
		return v, nil
	default:
		return core.Options{}, fmt.Errorf("algo: kset params are %T, want core.Options", params)
	}
}

func init() {
	mustRegister(&Algorithm{
		Name:  KSet,
		Codec: ksetCodec{},
		Prepare: func(run *Run) error {
			opts, err := ksetOpts(run.Params)
			if err != nil {
				return err
			}
			run.Params = opts
			return nil
		},
		NewFactory: func(run Run) (func(self int) rounds.Algorithm, error) {
			opts, err := ksetOpts(run.Params)
			if err != nil {
				return nil, err
			}
			return core.NewFactory(run.Proposals, opts), nil
		},
		// The automatic bound is generous for Lemma 11: stabilization +
		// 2n + 5 when the adversary declares a stabilization round, 12n
		// otherwise. (The differential batteries pin it bit for bit;
		// sim.Resolve applies it to NewProcess overrides too.)
		MaxRounds: func(run Run) int {
			if run.Stabilizes {
				return run.Stab + 2*run.N + 5
			}
			return 12 * run.N
		},
		Check:      ksetCheck,
		Probe:      func() Run { return Run{N: 2, Proposals: []int64{1, 2}} },
		FuzzTarget: "internal/wire:FuzzDecode",
	})
}

// ksetCheck evaluates the paper's whole-run properties: termination
// within the run's bound, validity (every decision is some proposal),
// and the k-bound (distinct decisions never exceed MinK of the realized
// stable skeleton — the Theorem 1 / Lemma 15 chain with k instantiated
// as tightly as the run allows).
func ksetCheck(run Run, f Facts) []Violation {
	var out []Violation
	if err := f.Outcome.CheckTermination(); err != nil {
		out = append(out, Violation{"termination", fmt.Sprintf("%v (bound %d)", err, run.MaxRounds)})
	}
	if err := f.Outcome.CheckValidity(); err != nil {
		out = append(out, Violation{"validity", err.Error()})
	}
	if distinct := len(f.Outcome.DistinctDecisions()); distinct > f.MinK {
		out = append(out, Violation{"k-bound", fmt.Sprintf("%d distinct decisions %v exceed MinK=%d",
			distinct, f.Outcome.DistinctDecisions(), f.MinK)})
	}
	return out
}
