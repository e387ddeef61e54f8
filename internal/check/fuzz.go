package check

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"kset/internal/adversary"
	"kset/internal/sim"
)

// This file is the schedule fuzzer: a budgeted campaign of randomized
// runs on the sim.Sweep worker pool, every cell one CheckRun through the
// zero-alloc round engine. Each cell's schedule
// is a pure function of (Seed, cell) via sim.CellSeed, so a campaign is
// deterministic for every worker count and any failure can be
// regenerated from its cell index alone.

// Strategy selects the fuzzer's schedule generator.
type Strategy string

const (
	// strategyMixed draws one of the other strategies per cell.
	strategyMixed Strategy = "mixed"
	// strategyArbitrary generates entirely unconstrained per-round
	// digraphs (adversary.RandomRun): the chaos regime outside every
	// named predicate family.
	strategyArbitrary Strategy = "arbitrary"
	// strategyRooted generates rooted-skeleton runs with 1..n root
	// components plus additive noise (adversary.RandomSources), i.e.
	// schedules constrained to Psrcs(k) for k = #roots..n.
	strategyRooted Strategy = "rooted"
	// strategySingleSource generates Psrcs(1) runs with a universal
	// 2-source (adversary.RandomSingleSource): the consensus regime.
	strategySingleSource Strategy = "singlesource"
	// strategyMutate draws a base run from the adversary zoo (partition,
	// crashes, lower bound, eventual) and applies random edge flips
	// (adversary.Mutate).
	strategyMutate Strategy = "mutate"
)

// strategies lists every concrete (non-mixed) strategy.
var strategies = []Strategy{strategyArbitrary, strategyRooted, strategySingleSource, strategyMutate}

// FuzzConfig describes one fuzzing campaign.
type FuzzConfig struct {
	// N is the number of processes; 0 means 4.
	N int
	// Budget is the number of runs; required, >= 1.
	Budget int
	// Seed is the campaign's base seed (cells derive their own).
	Seed int64
	// Workers bounds sweep parallelism; <= 1 is one core.
	Workers int
	// Strategy selects the schedule generator: mixed, arbitrary, rooted,
	// singlesource or mutate; "" means mixed.
	Strategy Strategy
	// Check configures the per-run oracle evaluation.
	Check Config
	// KeepFailures caps the retained failing runs; 0 means 1.
	KeepFailures int
}

// FuzzReport summarizes a fuzzing campaign.
type FuzzReport struct {
	// Runs is the number of executed runs (== Budget on a clean sweep).
	Runs int
	// FailedRuns is the number of runs with >= 1 oracle violation.
	FailedRuns int
	// Failures holds up to KeepFailures failing runs.
	Failures []*Failure
	// Elapsed is the campaign wall time.
	Elapsed time.Duration
}

// RunsPerSec returns the campaign throughput.
func (r *FuzzReport) RunsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Runs) / r.Elapsed.Seconds()
}

// genRun builds the fuzzed schedule of one campaign cell: a pure
// function of (n, strategy, seed, cell), so that a failure reported by
// cell index can be regenerated independently of the sweep.
func genRun(n int, strategy Strategy, seed int64, cell int) *adversary.Run {
	rng := rand.New(rand.NewSource(sim.CellSeed(seed, cell)))
	st := strategy
	if st == strategyMixed || st == "" {
		st = strategies[rng.Intn(len(strategies))]
	}
	switch st {
	case strategyArbitrary:
		return adversary.RandomRun(n, rng.Intn(2*n+1), rng)
	case strategyRooted:
		roots := 1 + rng.Intn(n)
		return adversary.RandomSources(n, roots, rng.Intn(n+1), 0.3, rng)
	case strategySingleSource:
		return adversary.RandomSingleSource(n, rng.Intn(n+1), 0.2, 0.3, rng)
	case strategyMutate:
		var base *adversary.Run
		switch pick := rng.Intn(4); {
		case pick == 0:
			base = adversary.Partition(n, adversary.EvenPartition(n, 1+rng.Intn(n)))
		case pick == 1:
			base, _ = adversary.RandomCrashes(n, rng.Intn(n), 3, rng)
		case pick == 2 && n >= 3:
			base = adversary.LowerBound(n, 2+rng.Intn(n-2)) // 2 <= k < n
		default:
			base = adversary.Eventual(adversary.Complete(n), rng.Intn(n))
		}
		return adversary.Mutate(base, 1+rng.Intn(2*n), rng)
	default:
		panic(fmt.Sprintf("check: unknown strategy %q", st))
	}
}

// Fuzz runs one campaign. A config it cannot run (n < 1, budget < 1, a
// strategy it does not know) is an error before any cell runs. The first
// execution error aborts it; oracle violations do not (they are
// collected into the report).
func Fuzz(cfg FuzzConfig) (*FuzzReport, error) {
	n := cfg.N
	if n == 0 {
		n = 4
	}
	if n < 1 {
		return nil, fmt.Errorf("check: Fuzz needs n >= 1, got %d", n)
	}
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("check: Fuzz needs budget >= 1, got %d", cfg.Budget)
	}
	if st := cfg.Strategy; st != "" && st != strategyMixed && !slices.Contains(strategies, st) {
		return nil, fmt.Errorf("check: unknown strategy %q: want %s or one of %v", st, strategyMixed, strategies)
	}
	keep := cfg.KeepFailures
	if keep <= 0 {
		keep = 1
	}

	report := &FuzzReport{}
	start := time.Now()
	err := sim.Sweep(cfg.Budget, cfg.Workers,
		func(cell int) (*Failure, error) {
			return CheckRun(genRun(n, cfg.Strategy, cfg.Seed, cell), cfg.Check)
		},
		func(cell int, fail *Failure) error {
			report.Runs++
			if fail != nil {
				report.FailedRuns++
				if len(report.Failures) < keep {
					report.Failures = append(report.Failures, fail)
				}
			}
			return nil
		})
	report.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	return report, nil
}
