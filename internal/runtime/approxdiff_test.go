package runtime

import (
	"math/rand"
	"os"
	"testing"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/approx"
	"kset/internal/sim"
)

// approxSuite is the differential corpus for the second algorithm
// family: path and cycle graphs, stabilizing and adversarial schedules,
// one metered spec so the wire-byte accounting is compared too.
func approxSuite(n int, seed int64) []NamedSchedule {
	rng := rand.New(rand.NewSource(seed))
	if n < 4 {
		n = 4
	}
	props := make([]int64, n)
	for i := range props {
		props[i] = int64(rng.Intn(n + 1))
	}
	cycProps := make([]int64, n)
	v := n + 2
	for i := range cycProps {
		// Narrow arc wrapping vertex 0 — the universal-cover lifting path.
		cycProps[i] = int64((v - 1 + rng.Intn(3)) % v)
	}
	// A6 keeps its intrinsic size (n = 5 on a 10-vertex path, proposals
	// [1 2 2 2 7]): under a single-source skeleton (MinK = 1) it decides
	// the two adjacent vertices 4 and 5 — correct approximate agreement
	// that k-set's distinct <= MinK formula would read as a violation.
	rng6 := rand.New(rand.NewSource(24))
	n6 := 4 + rng6.Intn(5)
	v6 := 2*n6 + rng6.Intn(20)
	props6 := make([]int64, n6)
	for i := range props6 {
		props6[i] = int64(rng6.Intn(v6))
	}
	adv6 := adversary.RandomSingleSource(n6, rng6.Intn(n6), 0.2, 0.3, rng6)
	suite := []NamedSchedule{
		{"A1-path-sources", sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adversary.RandomSources(n, 1, 1+rng.Intn(n), 0.3, rng),
			Proposals: props,
		}},
		{"A2-path-eventual", sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adversary.Eventual(adversary.Complete(n), n/2),
			Proposals: props,
		}},
		{"A3-cycle-narrow", sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adversary.RandomSources(n, 1, rng.Intn(n), 0.25, rng),
			Proposals: cycProps,
			Params:    approx.Options{Graph: approx.Graph{Shape: approx.Cycle, V: v}},
		}},
		{"A4-path-metered", sim.Spec{
			Algorithm:     algo.Approx,
			Adversary:     adversary.RandomSources(n, 1, n/2, 0.3, rng),
			Proposals:     props,
			MeterMessages: true,
		}},
		{"A5-path-nonstab", sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adversary.NewChurn(adversary.Complete(n).Base(), 0.2, rng.Int63()),
			Proposals: props,
		}},
		{"A6-path-adjacent-pair", sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adv6,
			Proposals: props6,
			Params:    approx.Options{Graph: approx.Graph{Shape: approx.Path, V: v6}},
		}},
	}
	return suite
}

// TestApproxDifferentialInProc replays the approx corpus on the
// distributed runtime over the in-process transport and requires
// outcome-for-outcome equality with the lockstep simulator — the same
// bit-exactness contract the kset E-suite battery enforces, now through
// the registry-resolved codec instead of the historical hardwired one.
func TestApproxDifferentialInProc(t *testing.T) {
	ns := []int{4, 7}
	if testing.Short() {
		ns = []int{4}
	}
	for _, n := range ns {
		for _, sched := range approxSuite(n, int64(300+n)) {
			if err := Diff(sched.Spec, RunnerOpts{}); err != nil {
				t.Errorf("n=%d %s: %v", n, sched.Name, err)
			}
		}
	}
}

// TestApproxDifferentialTCP replays the approx corpus over real TCP
// loopback sockets, fully distributed and with processes coalesced onto
// 2 mesh nodes, plus skewed senders (skewPlan) on the distributed lane.
func TestApproxDifferentialTCP(t *testing.T) {
	n := 5
	for _, sched := range approxSuite(n, 311) {
		for _, opts := range []RunnerOpts{
			{Kind: "tcp", Stall: skewPlan(sched.Spec.Adversary.N(), 9)},
			{Kind: "tcp", Nodes: 2},
		} {
			if err := Diff(sched.Spec, opts); err != nil {
				t.Errorf("%s (nodes=%d): %v", sched.Name, opts.Nodes, err)
			}
		}
	}
}

// TestApproxDifferentialUDP replays a small approx subset over the
// best-effort UDP transport with the service's loopback timing, where a
// quiet loopback is effectively lossless and the comparison stays
// bit-exact. Kept small: each UDP round waits out its grace window.
func TestApproxDifferentialUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP differential lane exceeds the short-test budget")
	}
	suite := approxSuite(4, 331)
	for _, sched := range suite[:2] {
		if err := Diff(sched.Spec, RunnerOpts{Kind: "udp"}); err != nil {
			t.Errorf("%s: %v", sched.Name, err)
		}
	}
}

// TestApproxDifferentialNightly is the long-budget approx battery the
// nightly workflow runs (KSET_NIGHTLY=1): more sizes, several seeds,
// all three transports.
func TestApproxDifferentialNightly(t *testing.T) {
	if os.Getenv("KSET_NIGHTLY") == "" {
		t.Skip("nightly approx differential battery; set KSET_NIGHTLY=1 to run")
	}
	for _, n := range []int{4, 6, 9, 12} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, sched := range approxSuite(n, seed) {
				configs := []RunnerOpts{
					{},
					{Stall: skewPlan(sched.Spec.Adversary.N(), seed)},
					{Kind: "tcp"},
					{Kind: "tcp", Nodes: 3},
				}
				if n <= 6 {
					configs = append(configs, RunnerOpts{Kind: "udp"})
				}
				for i, opts := range configs {
					if err := Diff(sched.Spec, opts); err != nil {
						t.Errorf("n=%d seed=%d %s (config %d): %v", n, seed, sched.Name, i, err)
					}
				}
			}
		}
	}
}

// TestApproxReplay runs the approx corpus through the replay harness by
// both of its entries — LossReplay over a quiet UDP loopback and
// CrashReplay in-proc with nobody crashing — and requires live and
// replay to be bit-identical. The harness resolves the spec's family
// before materializing the schedule and hands it to the runner, so the
// second family's codec carries the live run; a kset-only harness dies
// in round 1 encoding an *approx.Message. The agreement verdict must be
// the family's own too: A6 decides two adjacent vertices under MinK = 1.
func TestApproxReplay(t *testing.T) {
	for _, sched := range approxSuite(5, 341) {
		rep, err := LossReplay(sched.Spec, RunnerOpts{UDP: quietUDP()})
		if err != nil {
			t.Errorf("%s: LossReplay over udp: %v", sched.Name, err)
		} else if rep.LostLinks != 0 {
			t.Errorf("%s: quiet loopback lost %d scheduled deliveries", sched.Name, rep.LostLinks)
		}
		crep, err := CrashReplay(sched.Spec, RunnerOpts{})
		if err != nil {
			t.Errorf("%s: CrashReplay in-proc, nil plan: %v", sched.Name, err)
			continue
		}
		if !crep.KBound {
			t.Errorf("%s: KBound = false on a correct run (decisions %v, MinK %d)",
				sched.Name, crep.Live.Decisions, crep.Replay.MinK)
		}
		if sched.Name == "A6-path-adjacent-pair" && (crep.Distinct != 2 || crep.Replay.MinK != 1) {
			t.Errorf("A6 decided %d values under MinK %d; the schedule no longer exercises the adjacent-pair case",
				crep.Distinct, crep.Replay.MinK)
		}
	}
}
