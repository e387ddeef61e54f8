// Command ksetcheck is the adversarial model-checker CLI (DESIGN.md §6):
// it drives the falsification engine's exhaustive explorer or schedule
// fuzzer against Algorithm 1 and, on any oracle violation, shrinks the
// failing schedule to a minimal counterexample and exports it as a
// replayable runfile plus DOT trace.
//
// Usage:
//
//	ksetcheck -mode=exhaustive [-n 3] [-depth 2] [-faithful] [-oracle sound|inverted-k] [-out DIR]
//	ksetcheck -mode=fuzz [-n 4] -budget 100000 [-seed 1] [-workers 1] [-strategy mixed] ...
//
// The default guard is the repaired conservative one (r >= 2n-1), under
// which every sound oracle holds on every schedule explored so far; pass
// -faithful to check the paper's published guard instead — the explorer
// then finds the E10 unsoundness mechanically (16 of the 4096 n=3
// depth-2 executions violate the k-bound). Pass -oracle inverted-k to
// fire-drill the pipeline: the deliberately broken oracle fails
// immediately and the shrinker reduces the failure to the trivial
// 1-process schedule.
//
// ksetcheck exits 1 when violations were found, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"kset/internal/check"
	"kset/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ksetcheck: ")
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errViolations):
		os.Exit(1)
	default:
		log.Print(err)
		os.Exit(2)
	}
}

// errViolations distinguishes "the checker worked and found violations"
// from operational errors.
var errViolations = fmt.Errorf("oracle violations found")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ksetcheck", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		mode     = fs.String("mode", "exhaustive", "exhaustive|fuzz")
		n        = fs.Int("n", 0, "number of processes (default 3 exhaustive, 4 fuzz)")
		depth    = fs.Int("depth", 2, "exhaustive: enumerated round graphs (last repeats forever)")
		budget   = fs.Int("budget", 100000, "fuzz: number of runs")
		seed     = fs.Int64("seed", 1, "fuzz: campaign base seed")
		workers  = fs.Int("workers", 1, "fuzz: sweep worker count")
		strategy = fs.String("strategy", "mixed", "fuzz: mixed|arbitrary|rooted|singlesource|mutate")
		faithful = fs.Bool("faithful", false, "check the paper's published line-28 guard (unsound, see E10) instead of the repaired one")
		oracle   = fs.String("oracle", "sound", "sound|inverted-k (inverted-k is the deliberately broken fire-drill oracle)")
		outDir   = fs.String("out", "counterexamples", "directory for shrunk counterexample artifacts")
		maxShrk  = fs.Int("maxshrink", 0, "shrinker execution budget (0 = 10000)")
		keep     = fs.Int("keep", 1, "failing runs to retain and shrink")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h prints usage and exits 0
		}
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cfg := check.Config{Opts: core.Options{ConservativeDecide: !*faithful}}
	switch *oracle {
	case "sound":
	case "inverted-k":
		cfg.InvertKBound = true
	default:
		return fmt.Errorf("unknown -oracle %q (sound|inverted-k)", *oracle)
	}
	guard := "conservative"
	if *faithful {
		guard = "faithful"
	}

	var (
		failures []*check.Failure
		ran      uint64
		elapsed  time.Duration
	)
	switch *mode {
	case "exhaustive":
		if *n == 0 {
			*n = 3
		}
		start := time.Now()
		rep, err := check.Explore(check.ExploreConfig{
			N:            *n,
			Depth:        *depth,
			Check:        cfg,
			KeepFailures: *keep,
		})
		if err != nil {
			return err
		}
		elapsed = time.Since(start)
		ran = rep.Executions
		failures = rep.Failures
		fmt.Fprintf(stdout, "exhaustive: n=%d depth=%d guard=%s oracle=%s\n", *n, *depth, guard, *oracle)
		fmt.Fprintf(stdout, "configurations %d (schedules %d x proposal orders), canonical schedules %d, executions %d (%.1fx symmetry reduction)\n",
			rep.Configurations, rep.Sequences, rep.Canonical, rep.Executions, rep.Reduction())
		fmt.Fprintf(stdout, "violating runs %d, elapsed %.2fs (%.0f runs/sec)\n",
			rep.FailedRuns, elapsed.Seconds(), float64(rep.Executions)/elapsed.Seconds())

	case "fuzz":
		if *n == 0 {
			*n = 4
		}
		rep, err := check.Fuzz(check.FuzzConfig{
			N:            *n,
			Budget:       *budget,
			Seed:         *seed,
			Workers:      *workers,
			Strategy:     check.Strategy(*strategy),
			Check:        cfg,
			KeepFailures: *keep,
		})
		if err != nil {
			return err
		}
		elapsed = rep.Elapsed
		ran = uint64(rep.Runs)
		failures = rep.Failures
		fmt.Fprintf(stdout, "fuzz: n=%d budget=%d seed=%d strategy=%s workers=%d guard=%s oracle=%s\n",
			*n, *budget, *seed, *strategy, *workers, guard, *oracle)
		fmt.Fprintf(stdout, "runs %d, violating runs %d, elapsed %.2fs (%.0f runs/sec)\n",
			rep.Runs, rep.FailedRuns, elapsed.Seconds(), rep.RunsPerSec())

	default:
		return fmt.Errorf("unknown -mode %q (exhaustive|fuzz)", *mode)
	}
	_ = ran

	if len(failures) == 0 {
		fmt.Fprintf(stdout, "all oracles held\n")
		return nil
	}

	for i, fail := range failures {
		fmt.Fprintf(stdout, "\n--- failure %d (pre-shrink: n=%d, %d prefix rounds) ---\n",
			i+1, fail.Run.N(), fail.Run.PrefixLen())
		shrinkCfg := cfg
		shrinkCfg.Proposals = fail.Proposals
		res, err := check.Shrink(fail, shrinkCfg, *maxShrk)
		if err != nil {
			return err
		}
		min := res.Failure
		fmt.Fprintf(stdout, "shrunk to n=%d, %d prefix rounds, %d executed rounds (%d shrink executions, oracle %s):\n",
			min.Run.N(), min.Run.PrefixLen(), min.Outcome.Rounds, res.Executions, res.Oracle)
		fmt.Fprint(stdout, min.String())
		name := fmt.Sprintf("ce-%s-%s-%d", *mode, res.Oracle, i+1)
		paths, err := check.WriteCounterexample(*outDir, name, min)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "artifacts: %v\n", paths)
	}
	return errViolations
}
