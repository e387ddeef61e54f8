// Package chaos is the crash-fault harness: seeded generators for crash
// and stall plans, and a differential battery that drives live runs with
// real process deaths over every transport and proves each one replays
// bit-for-bit through the lockstep simulator (runtime.CrashReplay).
//
// Determinism discipline: every plan is a pure function of its seed, so
// a battery config names a reproducible chaos scenario — the same
// property that makes the repo's adversary schedules and loss patterns
// replayable extends to who dies, when, where in the round, and who
// hears the dying breath.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/runfile"
	"kset/internal/runtime"
	"kset/internal/sim"
	"kset/internal/transport"
)

// randomCrashPlan builds a seeded plan killing `crashes` distinct
// processes at rounds in [2, maxRound], sites cycling through
// before/mid/after-send with seeded partial sets for the mid-send
// victims. Victims are chosen uniformly; crashes is clamped to n-1 (the
// harness always keeps a survivor).
func randomCrashPlan(n, crashes, maxRound int, seed int64, notify bool) *runtime.CrashPlan {
	if crashes > n-1 {
		crashes = n - 1
	}
	if maxRound < 2 {
		maxRound = 2
	}
	rng := rand.New(rand.NewSource(seed))
	plan := &runtime.CrashPlan{
		Round:   make([]int, n),
		Site:    make([]runtime.CrashSite, n),
		Partial: make([]graph.NodeSet, n),
		Notify:  notify,
	}
	victims := rng.Perm(n)[:crashes]
	for k, v := range victims {
		plan.Round[v] = 2 + rng.Intn(maxRound-1)
		plan.Site[v] = runtime.CrashSite(k % 3)
		if plan.Site[v] == runtime.CrashMidSend {
			plan.Partial[v] = randomSubset(n, rng)
		}
	}
	return plan
}

// randomSubset returns a uniformly random subset of {0..n-1} (possibly
// empty: a mid-send crash that reached nobody).
func randomSubset(n int, rng *rand.Rand) graph.NodeSet {
	s := graph.NewNodeSet(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

// BatteryConfig names one crash-replay scenario of the differential
// battery.
type BatteryConfig struct {
	Name    string
	Kind    string // "inproc", "tcp", "udp"
	N       int
	Crashes int
	Seed    int64
}

// Run executes one battery config: a seeded adversary schedule, a
// seeded crash plan, a live run over the config's transport, and the
// replay verification. artifactDir, when non-empty, receives a .ksr of
// the realized graphs if the replay diverges.
func Run(cfg BatteryConfig, artifactDir string) (*runtime.CrashReplayReport, error) {
	n := cfg.N
	opts := runtime.RunnerOpts{
		Kind: cfg.Kind,
		// In-proc crashes are announced (MarkDead is the supervisor's
		// notice); the socket meshes must detect theirs by stall.
		Crash: randomCrashPlan(n, cfg.Crashes, n/2+2, cfg.Seed, cfg.Kind == "inproc"),
		// Each socket mesh reads its own timing; in-proc reads neither.
		TCP: transport.TCPOpts{RoundTimeout: 25 * time.Millisecond, DeadAfter: 4},
		UDP: transport.UDPOpts{RoundTimeout: 15 * time.Millisecond, Grace: 2 * time.Millisecond, DeadAfter: 4},
	}
	rep, err := runtime.CrashReplay(batterySpec(n, cfg.Seed), opts)
	return rep, fileDivergence(artifactDir, rep, err)
}

// batterySpec is the seeded schedule a battery run of n processes
// replays: one or two stable sources among noisy links.
func batterySpec(n int, seed int64) sim.Spec {
	rng := rand.New(rand.NewSource(seed))
	return sim.Spec{
		Adversary: adversary.RandomSources(n, 1+rng.Intn(2), n/2, 0.3, rng),
		Proposals: sim.SeqProposals(n),
		Params:    core.Options{ConservativeDecide: true},
		MaxRounds: 4*n + 20,
	}
}

// fileDivergence keeps what a diverging runtime.CrashReplay returned: the
// report beside its error carries the realized graphs, which go to dir
// (when non-empty) as a .ksr runfile the returned error names, so the
// divergence can be re-executed standalone. Any other result passes through.
func fileDivergence(dir string, rep *runtime.CrashReplayReport, err error) error {
	if err == nil || rep == nil || dir == "" {
		return err
	}
	rounds := len(rep.Realized)
	path := filepath.Join(dir, fmt.Sprintf("crash-divergence-r%d.ksr", rounds))
	werr := os.MkdirAll(dir, 0o755)
	if werr == nil {
		werr = runfile.WriteFile(path, adversary.NewRun(rep.Realized[:rounds-1], rep.Realized[rounds-1]))
	}
	if werr != nil {
		return fmt.Errorf("%w (realized graphs not written: %v)", err, werr)
	}
	return fmt.Errorf("%w (realized graphs: %s)", err, path)
}
