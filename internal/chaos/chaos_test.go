package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/runfile"
	"kset/internal/runtime"
	"kset/internal/sim"
	"kset/internal/transport"
)

// TestCrashReplayBattery is the acceptance battery: every transport ×
// n ∈ {8, 16} × seeded crash plans cycling through all three crash
// sites, each live run verified bit-for-bit against its lockstep replay.
// Zero tolerance: any divergence fails and drops a .ksr of the realized
// graphs into KSET_ARTIFACT_DIR, which the CI chaos lane uploads (a test
// temp dir, deleted with the test, when the variable is unset).
func TestCrashReplayBattery(t *testing.T) {
	artifactDir := os.Getenv("KSET_ARTIFACT_DIR")
	if artifactDir == "" {
		artifactDir = t.TempDir()
	}
	for _, cfg := range batteryConfigs() {
		cfg := cfg
		if testing.Short() && cfg.N > 8 {
			continue
		}
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(cfg, artifactDir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Crashed != cfg.Crashes {
				t.Errorf("plan killed %d processes, want %d", rep.Crashed, cfg.Crashes)
			}
			if !rep.KBound {
				t.Errorf("%d distinct decisions exceed realized MinK %d", rep.Distinct, rep.Replay.MinK)
			}
		})
	}
}

// TestCrashSitesExactHeardSets pins the site semantics on the announced
// in-proc transport, where nothing is timing-dependent: a before-send
// crash leaves only the victim's self-loop in its crash round, mid-send
// reaches exactly the partial set, after-send reaches everyone the
// schedule allows — and from the next round the victim's row is empty.
func TestCrashSitesExactHeardSets(t *testing.T) {
	const n, crashRound = 6, 3
	for _, tc := range []struct {
		name    string
		site    runtime.CrashSite
		partial []int
	}{
		{"before-send", runtime.CrashBeforeSend, nil},
		{"mid-send", runtime.CrashMidSend, []int{1, 4}},
		{"after-send", runtime.CrashAfterSend, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			victim := 2
			plan := siteCrashPlan(n, victim, crashRound, tc.site, true, tc.partial...)
			spec := sim.Spec{
				Adversary: adversary.Complete(n),
				Proposals: sim.SeqProposals(n),
				Params:    core.Options{ConservativeDecide: true},
				MaxRounds: 3*n + 10,
			}
			rep, err := runtime.CrashReplay(spec, runtime.RunnerOpts{Crash: plan})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Live.Rounds <= crashRound {
				t.Fatalf("run ended in %d rounds, before the crash at %d played out", rep.Live.Rounds, crashRound)
			}
			g := rep.Realized[crashRound-1]
			for q := 0; q < n; q++ {
				if q == victim {
					continue
				}
				got := g.HasEdge(victim, q)
				var want bool
				switch tc.site {
				case runtime.CrashBeforeSend:
					want = false
				case runtime.CrashMidSend:
					want = false
					for _, p := range tc.partial {
						if p == q {
							want = true
						}
					}
				case runtime.CrashAfterSend:
					want = true
				}
				if got != want {
					t.Errorf("crash round: edge victim->p%d = %v, want %v", q+1, got, want)
				}
			}
			// After the crash round the victim's row is self-loop only.
			for r := crashRound + 1; r <= rep.Live.Rounds; r++ {
				g := rep.Realized[r-1]
				for q := 0; q < n; q++ {
					if q != victim && g.HasEdge(victim, q) {
						t.Errorf("round %d: dead victim still delivered to p%d", r, q+1)
					}
				}
				if !g.HasEdge(victim, victim) {
					t.Errorf("round %d: victim's self-loop missing from the realized graph", r)
				}
			}
			// Survivors all decide (complete graph minus one crash keeps a
			// single root component: consensus among the living).
			for i := 0; i < n; i++ {
				if i != victim && !rep.Live.Decided[i] {
					t.Errorf("survivor p%d never decided", i+1)
				}
			}
		})
	}
}

// TestSilentCrashDetectedByStall runs a silent (unannounced) crash over
// the TCP mesh in chaos mode and over the UDP mesh: no MarkDead is ever
// called by the injector, so the only way the run can finish is the
// transport's own stall detector declaring the victim dead after
// DeadAfter deadline-closed rounds. The counters must show the verdict.
func TestSilentCrashDetectedByStall(t *testing.T) {
	for _, kind := range []string{"tcp", "udp"} {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			const n = 5
			var counters transport.StallCounters
			plan := siteCrashPlan(n, 1, 3, runtime.CrashAfterSend, false)
			spec := sim.Spec{
				Adversary: adversary.Complete(n),
				Proposals: sim.SeqProposals(n),
				Params:    core.Options{ConservativeDecide: true},
				MaxRounds: 3*n + 12,
			}
			rep, err := runtime.CrashReplay(spec, runtime.RunnerOpts{
				Kind:  kind,
				Crash: plan,
				TCP: transport.TCPOpts{
					RoundTimeout: 25 * time.Millisecond,
					DeadAfter:    3,
					Counters:     &counters,
				},
				UDP: transport.UDPOpts{
					RoundTimeout: 15 * time.Millisecond,
					Grace:        2 * time.Millisecond,
					DeadAfter:    3,
					Counters:     &counters,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if counters.Stalls.Load() == 0 {
				t.Error("silent crash closed no rounds by deadline")
			}
			if counters.Dead.Load() == 0 {
				t.Error("stall detector never issued the death verdict")
			}
			for i := 0; i < n; i++ {
				if i != 1 && !rep.Live.Decided[i] {
					t.Errorf("survivor p%d never decided", i+1)
				}
			}
		})
	}
}

// TestSilentCrashOnCountClosedMeshRejected: with no round deadline nobody
// ever notices a process that fell silent unannounced, so a silent crash
// plan on the in-proc mesh or on TCP without chaos mode used to wedge the
// run forever — no result, no error. It is an error before any process
// starts.
func TestSilentCrashOnCountClosedMeshRejected(t *testing.T) {
	const n = 4
	for _, kind := range []string{"inproc", "tcp"} {
		spec := sim.Spec{
			Adversary: adversary.RandomSingleSource(n, 0, 0.2, 0, rand.New(rand.NewSource(1))),
			Proposals: sim.SeqProposals(n),
			MaxRounds: 30,
		}
		failed := make(chan error, 1)
		go func() {
			_, err := runtime.CrashReplay(spec, runtime.RunnerOpts{Kind: kind, Crash: siteCrashPlan(n, 1, 2, runtime.CrashBeforeSend, false)})
			failed <- err
		}()
		select {
		case err := <-failed:
			if err == nil || !strings.Contains(err.Error(), "silent crash plan") {
				t.Errorf("%s: silent crash returned %v, want the silent-crash-plan error", kind, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: silent crash on a count-closed mesh is still running after 5s", kind)
		}
	}
}

// TestStallPlanRecoversWithoutVerdict delays one sender beyond the round
// deadline for a few rounds — long enough to burn deadlines, short
// enough that the miss streak never reaches DeadAfter. The run must
// finish with all processes deciding and zero death verdicts: a slow
// peer is not a dead peer.
func TestStallPlanRecoversWithoutVerdict(t *testing.T) {
	const n = 4
	var counters transport.StallCounters
	stall := &runtime.StallPlan{
		From:  make([]int, n),
		To:    make([]int, n),
		Delay: make([]time.Duration, n),
	}
	// p3 oversleeps the deadline in rounds 2 and 4 (not consecutive
	// enough for DeadAfter=3 even if both close by deadline).
	stall.From[2], stall.To[2], stall.Delay[2] = 2, 2, 40*time.Millisecond
	spec := sim.Spec{
		Adversary: adversary.Complete(n),
		Proposals: sim.SeqProposals(n),
		Params:    core.Options{ConservativeDecide: true},
		MaxRounds: 3*n + 10,
	}
	rep, err := runtime.CrashReplay(spec, runtime.RunnerOpts{
		Kind:  "udp",
		Stall: stall,
		UDP: transport.UDPOpts{
			RoundTimeout: 10 * time.Millisecond,
			Grace:        2 * time.Millisecond,
			DeadAfter:    3,
			Counters:     &counters,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if counters.Dead.Load() != 0 {
		t.Fatalf("a transient stall drew %d death verdicts", counters.Dead.Load())
	}
	for i := 0; i < n; i++ {
		if !rep.Live.Decided[i] {
			t.Errorf("p%d never decided after the stall cleared", i+1)
		}
	}
}

// TestStallVerdictSparesItsSuspect delays p2 past DeadAfter deadlines:
// a false-positive death verdict on a slow-but-alive process. The
// verdict is the others' view of p2; p2 itself must keep hearing its own
// messages (Algorithm 1 requires every self-loop), so the run finishes,
// replays bit-for-bit, and every process — p2 included — decides within
// the k-bound. The udp-complete row runs all MaxRounds: once every other
// node has forgotten it, nothing paces p2's node but its own rounds, the
// shape in which a node whose frames left from a goroutine of their own
// could outrun that goroutine and fail.
func TestStallVerdictSparesItsSuspect(t *testing.T) {
	for _, kind := range []string{"udp", "tcp", "udp-complete"} {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			const n = 4
			var counters transport.StallCounters
			stall := &runtime.StallPlan{
				From:  make([]int, n),
				To:    make([]int, n),
				Delay: make([]time.Duration, n),
			}
			stall.From[1], stall.To[1], stall.Delay[1] = 2, 5, 60*time.Millisecond
			spec := sim.Spec{
				Adversary:       adversary.Complete(n),
				Proposals:       sim.SeqProposals(n),
				Params:          core.Options{ConservativeDecide: true},
				MaxRounds:       3*n + 10,
				RunToCompletion: kind == "udp-complete",
			}
			rep, err := runtime.CrashReplay(spec, runtime.RunnerOpts{
				Kind:  strings.TrimSuffix(kind, "-complete"),
				Stall: stall,
				TCP:   transport.TCPOpts{RoundTimeout: 10 * time.Millisecond, DeadAfter: 2, Counters: &counters},
				UDP:   transport.UDPOpts{RoundTimeout: 10 * time.Millisecond, DeadAfter: 2, Counters: &counters},
			})
			if err != nil {
				t.Fatal(err)
			}
			if counters.Dead.Load() == 0 {
				t.Error("a 60ms stall against a 10ms deadline drew no death verdict")
			}
			for i := 0; i < n; i++ {
				if !rep.Live.Decided[i] {
					t.Errorf("p%d never decided", i+1)
				}
			}
			if !rep.KBound {
				t.Errorf("%d distinct decisions exceed realized MinK %d", rep.Distinct, rep.Replay.MinK)
			}
		})
	}
}

// TestStallVerdictStaysWithItsNode drops every datagram of one link —
// node 1 to node 0 on a fully distributed UDP mesh — in rounds 2–4,
// long enough for node 0's stall detector (DeadAfter 2) to forget its
// peer. The verdict is node 0's alone: the nodes that lost nothing keep
// hearing the suspect, and the realized run stays the one-link loss it
// is. A verdict written into every mailbox would silence the suspect to
// all of them.
func TestStallVerdictStaysWithItsNode(t *testing.T) {
	const rounds = 12
	star := graph.NewFullDigraph(4)
	for q := 0; q < 4; q++ {
		star.AddEdge(0, q)
	}
	star.AddSelfLoops()
	for _, tc := range []struct {
		name      string
		adv       *adversary.Run
		from, to  int // the node pair whose link drops out
		rootComps int // of the realized skeleton
	}{
		{"complete", adversary.Complete(3), 1, 0, 1},
		{"star", adversary.Static(star), 0, 1, 2}, // the source, and the node that forgot it
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			n := tc.adv.N()
			var counters transport.StallCounters
			rep, err := runtime.CrashReplay(sim.Spec{
				Adversary:       tc.adv,
				Proposals:       sim.SeqProposals(n),
				Params:          core.Options{ConservativeDecide: true},
				MaxRounds:       rounds,
				RunToCompletion: true,
			}, runtime.RunnerOpts{
				Kind: "udp",
				UDP: transport.UDPOpts{
					RoundTimeout: 10 * time.Millisecond,
					DeadAfter:    2,
					Counters:     &counters,
					DropDatagram: func(r, from, to, _ int) bool {
						return from == tc.from && to == tc.to && r >= 2 && r <= 4
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Realized) != rounds {
				t.Fatalf("run ended after %d rounds, want %d", len(rep.Realized), rounds)
			}
			for r, g := range rep.Realized {
				for p := 0; p < n; p++ {
					for q := 0; q < n; q++ {
						want := tc.adv.Graph(r+1).HasEdge(p, q)
						if p == tc.from && q == tc.to && r+1 >= 2 {
							want = false // dropped, then forgotten by q's node
						}
						if got := g.HasEdge(p, q); got != want {
							t.Errorf("round %d: p%d heard p%d = %v, want %v", r+1, q+1, p+1, got, want)
						}
					}
				}
			}
			if got := counters.Stalls.Load(); got != 2 {
				t.Errorf("Stalls = %d, want 2: the suspect missed at one receiver in rounds 2 and 3", got)
			}
			if got := counters.Dead.Load(); got != 1 {
				t.Errorf("Dead = %d, want 1: one node forgot one peer", got)
			}
			if got := rep.Replay.RootComps; got != tc.rootComps {
				t.Errorf("realized skeleton has %d root components, want %d", got, tc.rootComps)
			}
		})
	}
}

// TestAnnouncedCrashOverSockets runs announced crashes (CrashPlan.Notify:
// the supervisor's MarkDead, the one verdict that reaches every node)
// over the socket meshes, fully distributed and grouped, to decision and
// to completion. A crashed process's node then has every hosted sender
// dead, and it ships no more rounds; the survivors' rounds must still
// close and the run replay bit-for-bit.
func TestAnnouncedCrashOverSockets(t *testing.T) {
	const n, crashes = 8, 3 // three victims: all three crash sites
	for _, kind := range []string{"tcp", "udp"} {
		for _, nodes := range []int{0, 2} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, complete := range []bool{false, true} {
					name := fmt.Sprintf("%s-nodes%d-s%d-complete=%v", kind, nodes, seed, complete)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						spec := batterySpec(n, seed)
						spec.RunToCompletion = complete
						rep, err := runtime.CrashReplay(spec, runtime.RunnerOpts{
							Kind:  kind,
							Nodes: nodes,
							Crash: randomCrashPlan(n, crashes, n/2+2, seed, true),
							UDP:   runtime.QuietLoopbackUDP(),
						})
						if err != nil {
							t.Fatal(err)
						}
						if rep.Crashed != crashes {
							t.Errorf("plan killed %d processes, want %d", rep.Crashed, crashes)
						}
						if !rep.KBound {
							t.Errorf("%d distinct decisions exceed realized MinK %d", rep.Distinct, rep.Replay.MinK)
						}
					})
				}
			}
		}
	}
}

// TestDivergenceLeavesRunfile plants a divergence: a real replay's report
// (its Realized graphs) handed to fileDivergence beside an error, as
// CrashReplay returns them when live run and replay disagree. The error
// must name a .ksr under the artifact directory that reads back as
// exactly the realized run; every other result passes through untouched
// and files nothing.
func TestDivergenceLeavesRunfile(t *testing.T) {
	cfg := batteryConfigs()[0]
	rep, err := Run(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	planted := errors.New("planted divergence")
	dir := filepath.Join(t.TempDir(), "artifacts")
	for _, tc := range []struct {
		name      string
		got, want error
	}{
		{"no error", fileDivergence(dir, rep, nil), nil},
		{"no report", fileDivergence(dir, nil, planted), planted},
		{"no directory", fileDivergence("", rep, planted), planted},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v passed through", tc.name, tc.got, tc.want)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a result that is no divergence touched the artifact directory: %v", err)
	}

	err = fileDivergence(dir, rep, planted)
	if !errors.Is(err, planted) {
		t.Fatalf("filed error %v does not wrap the divergence", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ksr"))
	if len(files) != 1 || !strings.Contains(err.Error(), files[0]) {
		t.Fatalf("artifact directory holds %v; the error is %q", files, err)
	}
	run, err := runfile.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range rep.Realized {
		if got := run.Graph(r + 1); !got.Equal(want) {
			t.Fatalf("round %d of the runfile is %v, realized %v", r+1, got, want)
		}
	}
}

// batteryConfigs enumerates the acceptance battery: every transport ×
// n ∈ {8, 16}, two crashes each, sites cycling through all three crash
// sites per plan (randomCrashPlan assigns before/mid/after in victim
// order). In-proc runs announced crashes (the transport has no deadline
// machinery); the socket meshes run silent crashes and must detect them
// by stall.
func batteryConfigs() []BatteryConfig {
	var cfgs []BatteryConfig
	for _, kind := range []string{"inproc", "tcp", "udp"} {
		for _, n := range []int{8, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				cfgs = append(cfgs, BatteryConfig{
					Name:    fmt.Sprintf("%s-n%d-s%d", kind, n, seed),
					Kind:    kind,
					N:       n,
					Crashes: 2,
					Seed:    seed,
				})
			}
		}
	}
	return cfgs
}

// siteCrashPlan builds a single-victim plan: process victim dies in
// round r at the given site, reaching exactly the receivers in partial
// when the site is mid-send.
func siteCrashPlan(n, victim, r int, site runtime.CrashSite, notify bool, partial ...int) *runtime.CrashPlan {
	plan := &runtime.CrashPlan{
		Round:   make([]int, n),
		Site:    make([]runtime.CrashSite, n),
		Partial: make([]graph.NodeSet, n),
		Notify:  notify,
	}
	plan.Round[victim] = r
	plan.Site[victim] = site
	if site == runtime.CrashMidSend {
		plan.Partial[victim] = graph.NodeSetOf(partial...)
	}
	return plan
}
