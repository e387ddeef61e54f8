package chaos

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/core"
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
	for _, cfg := range BatteryConfigs() {
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
			plan := SiteCrashPlan(n, victim, crashRound, tc.site, true, tc.partial...)
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
			plan := SiteCrashPlan(n, 1, 3, runtime.CrashAfterSend, false)
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
			_, err := runtime.CrashReplay(spec, runtime.RunnerOpts{Kind: kind, Crash: SiteCrashPlan(n, 1, 2, runtime.CrashBeforeSend, false)})
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
// the k-bound.
func TestStallVerdictSparesItsSuspect(t *testing.T) {
	for _, kind := range []string{"udp", "tcp"} {
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
				Adversary: adversary.Complete(n),
				Proposals: sim.SeqProposals(n),
				Params:    core.Options{ConservativeDecide: true},
				MaxRounds: 3*n + 10,
			}
			rep, err := runtime.CrashReplay(spec, runtime.RunnerOpts{
				Kind:  kind,
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

// TestDivergenceLeavesRunfile plants a divergence: a real replay's report
// (its Realized graphs) handed to fileDivergence beside an error, as
// CrashReplay returns them when live run and replay disagree. The error
// must name a .ksr under the artifact directory that reads back as
// exactly the realized run; every other result passes through untouched
// and files nothing.
func TestDivergenceLeavesRunfile(t *testing.T) {
	cfg := BatteryConfigs()[0]
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
