package runtime

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/sim"
	"kset/internal/transport"
)

// TestLossReplayNightlySoak is the long-budget lossy-UDP battery the
// nightly workflow runs (KSET_NIGHTLY=1): many seeds and mesh shapes
// under sustained 10% injected frame loss COMBINED with real
// kernel-buffer pressure — the sockets get the smallest buffers the
// kernel will grant, so bursts overflow and the wire genuinely drops
// datagrams on its own, beyond the injected schedule. Every run must
// survive the full loss-replay verification (the live run equals the
// lockstep simulator on the realized heard-sets, bit for bit) with
// zero k-bound violations; across the whole soak the network must
// actually have lost traffic, or the battery proved nothing.
func TestLossReplayNightlySoak(t *testing.T) {
	if os.Getenv("KSET_NIGHTLY") == "" {
		t.Skip("nightly lossy-UDP soak; set KSET_NIGHTLY=1 to run")
	}
	totalLost := 0
	for _, n := range []int{6, 8, 12} {
		for _, nodes := range []int{0, 2} {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed + int64(100*n+nodes)))
				spec := sim.Spec{
					Adversary: adversary.RandomSources(n, 1+rng.Intn(3), n/2, 0.25, rng),
					Proposals: sim.SeqProposals(n),
					Params:    core.Options{ConservativeDecide: true},
					MaxRounds: 40,
				}
				rep, err := LossReplay(spec, RunnerOpts{
					Nodes: nodes,
					UDP: transport.UDPOpts{
						RoundTimeout: 15 * time.Millisecond,
						Grace:        2 * time.Millisecond,
						SocketBuffer: 1 << 12, // kernel clamps up to its floor; small enough to overflow under bursts
					},
					Loss:     0.10,
					LossSeed: seed,
				})
				if err != nil {
					t.Errorf("n=%d nodes=%d seed=%d: %v", n, nodes, seed, err)
					continue
				}
				totalLost += rep.LostLinks
				if !rep.KBound {
					t.Errorf("n=%d nodes=%d seed=%d: k-bound violation: %d distinct decisions, realized MinK %d",
						n, nodes, seed, rep.Distinct, rep.Replay.MinK)
				}
			}
		}
	}
	if totalLost == 0 {
		t.Error("soak lost no traffic anywhere: loss injection or buffer pressure is not working")
	}
}
