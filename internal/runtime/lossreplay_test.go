package runtime

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/core"
	"kset/internal/sim"
	"kset/internal/transport"
)

// quietUDP is the UDP shape for loss-replay tests that want NO real
// loss: a deadline far beyond any scheduler stall, so absence closure
// fires only when a test injects loss deliberately.
func quietUDP() transport.UDPOpts {
	return transport.UDPOpts{RoundTimeout: 5 * time.Second, Grace: 10 * time.Millisecond}
}

// lossyUDP is the shape for tests that inject loss: a deadline tight
// enough that lossy rounds close quickly. A scheduler stall beyond the
// deadline just manifests as extra loss — which the harness tolerates
// by construction, so tightness cannot make these tests flaky.
func lossyUDP() transport.UDPOpts {
	return transport.UDPOpts{RoundTimeout: 15 * time.Millisecond, Grace: 2 * time.Millisecond}
}

// TestLossReplayLosslessEqualsSchedule runs suite schedules over a
// quiet UDP mesh: nothing is lost, so the realized heard-sets equal the
// scheduled ones, the loss-replay must verify with zero lost links, and
// its replay is the simulator's run of the schedule itself.
func TestLossReplayLosslessEqualsSchedule(t *testing.T) {
	for _, sched := range ScheduleSuite(6, 88) {
		// Families with fixed small n keep it; the meter adapts.
		rep, err := LossReplay(sched.Spec, RunnerOpts{UDP: quietUDP()})
		if err != nil {
			t.Errorf("%s: %v", sched.Name, err)
			continue
		}
		if rep.LostLinks != 0 {
			t.Errorf("%s: quiet loopback lost %d scheduled deliveries", sched.Name, rep.LostLinks)
		}
		spec := sched.Spec
		if err := spec.Resolve(); err != nil {
			t.Fatal(err)
		}
		spec.Adversary = adversary.MaterializeRun(spec.Adversary, spec.MaxRounds)
		want, err := sim.Execute(spec)
		if err == nil {
			err = CompareOutcomes(want, rep.Replay)
		}
		if err != nil {
			t.Errorf("%s: the lossless replay is not the schedule's run: %v", sched.Name, err)
		}
		if rep.Live.Rounds != rep.Replay.Rounds {
			t.Errorf("%s: live %d rounds, replay %d", sched.Name, rep.Live.Rounds, rep.Replay.Rounds)
		}
		// E10-witness runs the published guard against the schedule built
		// to break it; the harness must *detect* the violation. Every
		// other suite entry must respect the bound.
		if wantKBound := sched.Name != "E10-witness"; rep.KBound != wantKBound {
			t.Errorf("%s: KBound = %v (distinct %d, MinK %d), want %v",
				sched.Name, rep.KBound, rep.Distinct, rep.Replay.MinK, wantKBound)
		}
	}
}

// TestLossReplayBoundedInjectedLoss kills 30% of frames during the
// first six rounds, then lets the network go quiet: the realized run
// stabilizes, processes decide, and the replay must reproduce the
// decisions bit for bit with the k-bound intact.
func TestLossReplayBoundedInjectedLoss(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + int(seed%3)
		spec := sim.Spec{
			Adversary: adversary.RandomSources(n, 1+rng.Intn(3), n/2, 0.3, rng),
			Proposals: sim.SeqProposals(n),
			Params:    core.Options{ConservativeDecide: true},
		}
		inject := transport.FrameLoss(0.3, seed)
		u := quietUDP()
		u.RoundTimeout = 15 * time.Millisecond
		u.DropDatagram = func(r, from, to, frag int) bool { return r <= 6 && inject(r, from, to, frag) }
		rep, err := LossReplay(spec, RunnerOpts{UDP: u})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.LostLinks == 0 {
			t.Errorf("seed %d: 30%% injected loss lost nothing", seed)
		}
		decided := 0
		for _, d := range rep.Live.Decided {
			if d {
				decided++
			}
		}
		if decided != n {
			t.Errorf("seed %d: only %d/%d processes decided after loss stopped", seed, decided, n)
		}
		if !rep.KBound {
			t.Errorf("seed %d: %d distinct decisions exceed realized MinK %d", seed, rep.Distinct, rep.Replay.MinK)
		}
	}
}

// TestLossReplaySustainedTenPercent is the acceptance shape: 10% i.i.d.
// frame loss for the whole run (nothing ever stabilizes for sure), over
// the fully distributed mesh and a grouped one. Whatever the realized
// run did — decided or not — it must equal its own replay and respect
// the k-bound the realized skeleton grants.
func TestLossReplaySustainedTenPercent(t *testing.T) {
	for _, nodes := range []int{0, 2} {
		for seed := int64(10); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 6
			spec := sim.Spec{
				Adversary: adversary.RandomSources(n, 2, n/2, 0.25, rng),
				Proposals: sim.SeqProposals(n),
				Params:    core.Options{ConservativeDecide: true},
				MaxRounds: 30,
			}
			rep, err := LossReplay(spec, RunnerOpts{
				Nodes: nodes,
				UDP:   lossyUDP(),
				Loss:  0.10, LossSeed: seed,
			})
			if err != nil {
				t.Fatalf("nodes=%d seed=%d: %v", nodes, seed, err)
			}
			if rep.LostLinks == 0 {
				t.Errorf("nodes=%d seed=%d: sustained 10%% loss lost nothing", nodes, seed)
			}
			if !rep.KBound {
				t.Errorf("nodes=%d seed=%d: %d distinct decisions exceed realized MinK %d",
					nodes, seed, rep.Distinct, rep.Replay.MinK)
			}
		}
	}
}

// TestLossReplayPipelined sets RunToCompletion, driving the runtime's
// pipelined send path (round r+1 broadcast before the round-r report)
// over the lossy mesh: the bounded-lookahead window and the absence
// closure must compose, and the replay must still match.
func TestLossReplayPipelined(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 5
	spec := sim.Spec{
		Adversary:       adversary.RandomSources(n, 2, n/2, 0.3, rng),
		Proposals:       sim.SeqProposals(n),
		Params:          core.Options{ConservativeDecide: true},
		MaxRounds:       25,
		RunToCompletion: true,
	}
	rep, err := LossReplay(spec, RunnerOpts{UDP: lossyUDP(), Loss: 0.08, LossSeed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live.Rounds != 25 {
		t.Fatalf("pipelined run executed %d rounds, want 25", rep.Live.Rounds)
	}
}

// TestDiffRejectsALossyRun pins Diff's premise: it compares the live run
// with the scheduled one, which is only the run that happened if the wire
// lost nothing. Here node 0's datagrams to node 1 vanish from round 20 of
// 30, after every process has decided, so decisions alone cannot tell the
// runs apart: Diff must name the lost deliveries, and LossReplay, which
// replays what the wire delivered, must accept the run and count them.
func TestDiffRejectsALossyRun(t *testing.T) {
	spec := sim.Spec{
		Adversary:       adversary.Complete(4),
		Proposals:       sim.SeqProposals(4),
		MaxRounds:       30,
		RunToCompletion: true,
	}
	u := lossyUDP()
	u.DropDatagram = func(r, from, to, _ int) bool { return r >= 20 && from == 0 && to == 1 }
	err := Diff(spec, RunnerOpts{Kind: "udp", UDP: u})
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Errorf("Diff on a run that lost deliveries: got %v, want an error naming them", err)
	}
	rep, err := LossReplay(spec, RunnerOpts{UDP: u})
	if err != nil {
		t.Fatalf("LossReplay: %v", err)
	}
	if rep.LostLinks == 0 {
		t.Errorf("LossReplay counted no lost deliveries; want the dropped p1->p2 links")
	}
}

// TestHarnessOwnedFields pins which fields of the one RunnerOpts each
// harness entry point fills in itself: a caller who set one gets an error
// naming it, never a silent overwrite (LossReplay used to rewrite Kind
// "tcp" to "udp" without a word). Every entry owns Algorithm and the
// meter; Diff refuses a crash plan and LossReplay any kind but udp. What
// an entry point does not own it runs with.
func TestHarnessOwnedFields(t *testing.T) {
	// The two names the benchmark module spells are RunnerOpts itself.
	var _ RunnerOpts = DiffOpts{}
	var _ RunnerOpts = LossReplayOpts{}

	const n = 4
	spec := sim.Spec{Adversary: adversary.Complete(n), Proposals: sim.SeqProposals(n)}
	meter := func() *transport.HeardMeter { return transport.NewHeardMeter(n) }
	diff := func(o RunnerOpts) error { return Diff(spec, o) }
	crash := func(o RunnerOpts) error { _, err := CrashReplay(spec, o); return err }
	loss := func(o RunnerOpts) error { _, err := LossReplay(spec, o); return err }
	nobody := &CrashPlan{Round: make([]int, n), Site: make([]CrashSite, n), Notify: true}
	for _, tc := range []struct {
		name  string
		run   func(RunnerOpts) error
		opts  RunnerOpts
		owned string // the field the error must name; "" = accepted
	}{
		{"Diff/Algorithm", diff, RunnerOpts{Algorithm: algo.KSet}, "Algorithm"},
		{"Diff/Meter", diff, RunnerOpts{Meter: meter()}, "Meter"},
		{"Diff/Crash", diff, RunnerOpts{Crash: nobody}, "Crash"},
		{"Diff/Stall", diff, RunnerOpts{Stall: skewPlan(n, 1)}, ""},
		{"Diff/Loss over tcp", diff, RunnerOpts{Kind: "tcp", Loss: 0.1}, "Loss"},
		{"CrashReplay/Algorithm", crash, RunnerOpts{Algorithm: algo.KSet}, "Algorithm"},
		{"CrashReplay/Meter", crash, RunnerOpts{Meter: meter()}, "Meter"},
		{"CrashReplay/UDP.Meter", crash, RunnerOpts{Kind: "udp", UDP: transport.UDPOpts{Meter: meter()}}, "UDP.Meter"},
		{"CrashReplay/Kind", crash, RunnerOpts{Kind: "tcp", Nodes: 2}, ""},
		{"LossReplay/Algorithm", loss, RunnerOpts{Algorithm: algo.KSet}, "Algorithm"},
		{"LossReplay/Meter", loss, RunnerOpts{Meter: meter()}, "Meter"},
		{"LossReplay/UDP.Meter", loss, RunnerOpts{UDP: transport.UDPOpts{Meter: meter()}}, "UDP.Meter"},
		{"LossReplay/Kind", loss, RunnerOpts{Kind: "tcp"}, "Kind"},
		{"LossReplay/Crash", loss, RunnerOpts{Crash: nobody}, "Crash"},
		{"LossReplay/udp", loss, RunnerOpts{Kind: "udp", UDP: quietUDP()}, ""},
	} {
		err := tc.run(tc.opts)
		switch {
		case tc.owned == "" && err != nil:
			t.Errorf("%s: rejected a field the harness does not own: %v", tc.name, err)
		case tc.owned != "" && (err == nil || !strings.Contains(err.Error(), tc.owned)):
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.owned)
		}
	}
}
