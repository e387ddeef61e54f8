package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/rounds"
	"kset/internal/runfile"
)

// TestDifferentialSuiteInProc replays the full E1–E16 schedule suite on
// the distributed runtime over the in-process transport and requires
// outcome-for-outcome equality with the simulator. One n also runs under
// a stall plan (skewPlan): timing skew must not leak into decisions.
func TestDifferentialSuiteInProc(t *testing.T) {
	ns := []int{4, 8, 16}
	if testing.Short() {
		ns = []int{4, 8}
	}
	for _, n := range ns {
		for _, sched := range ScheduleSuite(n, int64(1000+n)) {
			opts := RunnerOpts{}
			if n == 8 {
				opts.Stall = skewPlan(sched.Spec.Adversary.N(), int64(n))
			}
			if err := Diff(sched.Spec, opts); err != nil {
				t.Errorf("n=%d %s: %v", n, sched.Name, err)
			}
		}
	}
}

// TestDifferentialSuiteN128 replays the full schedule suite at n = 128
// on the distributed runtime over the in-process transport — 128
// workers per run, every E1–E16 family — and requires exact
// outcome equality with the simulator. This is the scale pin: the
// runtime's control plane, by-value hand-off, and transport windowing must
// not degrade into divergence (or deadlock) an order of magnitude above
// the everyday test sizes. Rounds are capped: per-round cost at this n
// is dominated by the O(n^4) knowledge-graph merges (~0.4s/round on one
// core once knowledge saturates), so full-length decided runs belong to
// benchmarks, not the default test budget — twelve rounds already cross
// every multi-word bitset path and the transport window machinery at
// full width. In-proc, every link goes by value: nothing is decoded.
func TestDifferentialSuiteN128(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 differential suite exceeds the short-test budget")
	}
	const n = 128
	for _, sched := range ScheduleSuite(n, int64(1000+n)) {
		sched.Spec.MaxRounds = 12
		if err := Diff(sched.Spec, RunnerOpts{}); err != nil {
			t.Errorf("n=%d %s: %v", n, sched.Name, err)
		}
	}
}

// TestDifferentialPipelined replays the suite with RunToCompletion set:
// no StopWhen predicate, so the runtime takes the pipelined send path
// (round r+1's broadcast precedes the round-r report). Every decision,
// decision round, and skeleton measurement must still match the
// lockstep simulator exactly, on both transports and with coalesced
// multi-process mesh nodes.
func TestDifferentialPipelined(t *testing.T) {
	n := 6
	for _, sched := range ScheduleSuite(n, 77) {
		sched.Spec.RunToCompletion = true
		for _, opts := range []RunnerOpts{
			{},
			{Kind: "tcp"},
			{Kind: "tcp", Nodes: 2},
		} {
			if err := Diff(sched.Spec, opts); err != nil {
				t.Errorf("%s (kind=%q nodes=%d): %v", sched.Name, opts.Kind, opts.Nodes, err)
			}
		}
	}
}

// TestDifferentialSuiteTCP replays the full suite over real TCP
// loopback sockets with skewed senders — both fully distributed (one
// node per process) and grouped onto 3 mesh nodes, where all of a
// round's messages between two nodes travel as one coalesced frame.
// Since co-located links carry values, the fully distributed lane here
// (and TestApproxDifferentialTCP's, for the other family) is what runs
// the codec end to end on every push: it stays outside -short.
func TestDifferentialSuiteTCP(t *testing.T) {
	n := 6
	for _, sched := range ScheduleSuite(n, 2026) {
		for _, nodes := range []int{0, 3} {
			opts := RunnerOpts{Kind: "tcp", Nodes: nodes, Stall: skewPlan(sched.Spec.Adversary.N(), 7)}
			if err := Diff(sched.Spec, opts); err != nil {
				t.Errorf("n=%d nodes=%d %s: %v", n, nodes, sched.Name, err)
			}
		}
	}
}

// TestDifferentialNightly is the long-budget harness the nightly CI
// workflow runs (KSET_NIGHTLY=1): the full suite at n up to 32, several
// seeds, both transports. On divergence it writes the materialized
// schedule as a .ksr runfile into KSET_ARTIFACT_DIR, so the workflow
// can upload a replayable counterexample.
func TestDifferentialNightly(t *testing.T) {
	if os.Getenv("KSET_NIGHTLY") == "" {
		t.Skip("nightly differential harness; set KSET_NIGHTLY=1 to run")
	}
	artifactDir := os.Getenv("KSET_ARTIFACT_DIR")
	for _, n := range []int{8, 16, 24, 32} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, sched := range ScheduleSuite(n, seed) {
				configs := []RunnerOpts{
					{},
					{Stall: skewPlan(sched.Spec.Adversary.N(), seed)},
				}
				if n <= 16 {
					configs = append(configs,
						RunnerOpts{Kind: "tcp"},
						RunnerOpts{Kind: "tcp", Nodes: 4})
				}
				for i, opts := range configs {
					err := Diff(sched.Spec, opts)
					if err == nil {
						continue
					}
					t.Errorf("n=%d seed=%d %s (config %d): %v", n, seed, sched.Name, i, err)
					if artifactDir != "" {
						writeDivergenceArtifact(t, artifactDir, sched, n, seed, err)
					}
				}
			}
		}
	}
}

// writeDivergenceArtifact materializes the diverging schedule and drops
// it as a runfile plus a human-readable report next to it.
func writeDivergenceArtifact(t *testing.T, dir string, sched NamedSchedule, n int, seed int64, derr error) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	adv := sched.Spec.Adversary
	maxRounds := sched.Spec.MaxRounds
	if maxRounds == 0 {
		if s, ok := adv.(rounds.Stabilizer); ok {
			maxRounds = s.StabilizationRound() + 2*adv.N() + 5
		} else {
			maxRounds = 12 * adv.N()
		}
	}
	base := filepath.Join(dir, fmt.Sprintf("diff-%s-n%d-seed%d", sched.Name, n, seed))
	if err := runfile.WriteFile(base+".ksr", adversary.MaterializeRun(adv, maxRounds)); err != nil {
		t.Logf("write runfile artifact: %v", err)
	}
	report := fmt.Sprintf("schedule %s (n=%d, seed=%d)\nproposals %v\nparams %+v\ndivergence: %v\n",
		sched.Name, n, seed, sched.Spec.Proposals, sched.Spec.Params, derr)
	if err := os.WriteFile(base+".txt", []byte(report), 0o644); err != nil {
		t.Logf("write report artifact: %v", err)
	}
}

// TestScheduleSuiteCoversE1ThroughE16 pins that the differential corpus
// really spans every experiment family.
func TestScheduleSuiteCoversE1ThroughE16(t *testing.T) {
	suite := ScheduleSuite(8, 1)
	seen := map[string]bool{}
	for _, s := range suite {
		fam := strings.SplitN(s.Name, "-", 2)[0]
		seen[fam] = true
		if s.Spec.Adversary == nil {
			t.Fatalf("%s: nil adversary", s.Name)
		}
		if len(s.Spec.Proposals) != s.Spec.Adversary.N() {
			t.Fatalf("%s: %d proposals for n=%d", s.Name, len(s.Spec.Proposals), s.Spec.Adversary.N())
		}
	}
	for e := 1; e <= 16; e++ {
		if !seen[fmt.Sprintf("E%d", e)] {
			t.Errorf("suite has no schedule for experiment family E%d", e)
		}
	}
}
