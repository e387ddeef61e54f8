package algo

import (
	"fmt"

	"kset/internal/approx"
	"kset/internal/rounds"
)

// Approx is the registered name of graph approximate agreement
// (internal/approx) — the second family, proving the stack generalizes
// beyond the source paper.
const Approx = "approx"

// approxCodec carries approx.Message values (see internal/approx wire
// format).
type approxCodec struct{}

// Encode implements Codec.
func (approxCodec) Encode(dst []byte, msg any) ([]byte, error) {
	m, ok := msg.(*approx.Message)
	if !ok {
		return nil, fmt.Errorf("algo: approx codec cannot encode %T", msg)
	}
	return approx.AppendEncode(dst, *m), nil
}

// NewDecoder implements Codec.
func (approxCodec) NewDecoder(n int) Decoder {
	return &approxDecoder{msgs: make([]approx.Message, n)}
}

// approxDecoder decodes into per-sender scratch (the Decoder contract);
// approx messages are three ints, so this is trivially allocation-free.
type approxDecoder struct {
	msgs []approx.Message
}

// Decode implements Decoder.
func (d *approxDecoder) Decode(from int, payload []byte) (any, error) {
	if from < 0 || from >= len(d.msgs) {
		return nil, fmt.Errorf("algo: decode from out-of-range sender %d", from)
	}
	m := &d.msgs[from]
	if err := approx.DecodeInto(payload, m); err != nil {
		return nil, fmt.Errorf("algo: decode message from p%d: %w", from+1, err)
	}
	return m, nil
}

// approxOpts coerces a Run's Params into approx.Options (nil =
// defaults).
func approxOpts(params any) (approx.Options, error) {
	switch v := params.(type) {
	case nil:
		return approx.Options{}, nil
	case approx.Options:
		return v, nil
	default:
		return approx.Options{}, fmt.Errorf("algo: approx params are %T, want approx.Options", params)
	}
}

func init() {
	mustRegister(&Algorithm{
		Name:  Approx,
		Codec: approxCodec{},
		Prepare: func(run *Run) error {
			opts, err := approxOpts(run.Params)
			if err != nil {
				return err
			}
			if err := opts.Normalize(run.N, run.Proposals, run.Stab, run.Stabilizes); err != nil {
				return err
			}
			run.Params = opts
			return nil
		},
		NewFactory: func(run Run) (func(self int) rounds.Algorithm, error) {
			opts, err := approxOpts(run.Params)
			if err != nil {
				return nil, err
			}
			return approx.NewFactory(run.Proposals, opts), nil
		},
		// Every process decides exactly at the (prepared) decide round.
		MaxRounds: func(run Run) int {
			opts, err := approxOpts(run.Params)
			if err != nil || opts.DecideRound == 0 {
				return 12 * run.N
			}
			return opts.DecideRound
		},
		Check:      approxCheck,
		Probe:      func() Run { return Run{N: 2, Proposals: []int64{0, 2}, Stab: 1, Stabilizes: true} },
		FuzzTarget: "internal/approx:FuzzDecode",
	})
}

// approxCheck evaluates approximate agreement's whole-run properties.
//
// Termination is exact, not just bounded: every process decides in
// precisely round DecideRound (checked whenever the run got that far).
// Validity is hull containment — decisions lie in the minimal interval
// (path) or, when the inputs fit an arc shorter than half the cycle,
// the minimal covering arc of the proposals. Agreement (all decisions
// pairwise adjacent on the target graph) is claimed exactly under the
// conditions the convergence argument needs: a stabilizing schedule
// whose stable skeleton has one root component (every post-stable round
// graph rooted), a decide round no earlier than DecideRoundFor's bound,
// and on cycles the narrow-arc input regime — outside them the problem
// is unsolvable in general and the oracle stays silent rather than
// report phantom violations.
func approxCheck(run Run, f Facts) []Violation {
	opts, err := approxOpts(run.Params)
	if err != nil {
		return []Violation{{"params", err.Error()}}
	}
	g := opts.Graph
	out := f.Outcome
	var viols []Violation

	if out.Rounds >= opts.DecideRound {
		for i := 0; i < out.N; i++ {
			switch {
			case !out.Decided[i]:
				viols = append(viols, Violation{"termination",
					fmt.Sprintf("p%d undecided after round %d (decide round %d)", i+1, out.Rounds, opts.DecideRound)})
			case out.DecideRounds[i] != opts.DecideRound:
				viols = append(viols, Violation{"termination",
					fmt.Sprintf("p%d decided in round %d, want exactly %d", i+1, out.DecideRounds[i], opts.DecideRound)})
			}
		}
	}

	start, span := approx.Span(g, out.Proposals)
	narrow := g.Shape != approx.Cycle || 2*span < int64(g.V)
	for i := 0; i < out.N; i++ {
		if !out.Decided[i] {
			continue
		}
		d := out.Decisions[i]
		if d < 0 || d >= int64(g.V) {
			viols = append(viols, Violation{"validity",
				fmt.Sprintf("p%d decided %d, not a vertex of %s-%d", i+1, d, g.Shape, g.V)})
			continue
		}
		if narrow && !approx.InSpan(g, start, span, d) {
			viols = append(viols, Violation{"validity",
				fmt.Sprintf("p%d decided %d outside the proposal %s [%d,+%d] on %s-%d",
					i+1, d, spanNoun(g), start, span, g.Shape, g.V)})
		}
	}

	claimAgreement := run.Stabilizes && f.RootComps == 1 && narrow &&
		opts.DecideRound >= approx.DecideRoundFor(run.N, g.V, run.Stab)
	if claimAgreement {
		for i := 0; i < out.N; i++ {
			if !out.Decided[i] {
				continue
			}
			for j := i + 1; j < out.N; j++ {
				if !out.Decided[j] {
					continue
				}
				if dist := approx.Dist(g, out.Decisions[i], out.Decisions[j]); dist > 1 {
					viols = append(viols, Violation{"agreement",
						fmt.Sprintf("p%d decided %d and p%d decided %d: distance %d on %s-%d",
							i+1, out.Decisions[i], j+1, out.Decisions[j], dist, g.Shape, g.V)})
				}
			}
		}
	}
	return viols
}

func spanNoun(g approx.Graph) string {
	if g.Shape == approx.Cycle {
		return "arc"
	}
	return "interval"
}
