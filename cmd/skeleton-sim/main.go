// Command skeleton-sim runs one instrumented simulation of Algorithm 1
// under a selectable adversary and prints the outcome: decisions, rounds,
// stable skeleton, root components, MinK, and (optionally) wire traffic.
//
// Usage examples:
//
//	skeleton-sim -adversary figure1
//	skeleton-sim -adversary lowerbound -n 8 -k 3
//	skeleton-sim -adversary random -n 16 -roots 2 -noise 5 -seed 7
//	skeleton-sim -adversary churn -n 10 -seed 3 -meter
//	skeleton-sim -adversary partition -n 9 -blocks 3
//	skeleton-sim -adversary eventual -n 6 -prefix 6
//	skeleton-sim -adversary crash -n 8 -crashes 3
//	skeleton-sim -adversary witness            (the E10 counterexample)
//
// Runs of eventually-constant adversaries can be recorded to a runfile
// and replayed bit-identically (useful for sharing counterexamples —
// cmd/ksetcheck emits its shrunk schedules in exactly this format):
//
//	skeleton-sim -adversary random -n 12 -seed 9 -record bad.ksr
//	skeleton-sim -replay bad.ksr -trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/runfile"
	"kset/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("skeleton-sim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("skeleton-sim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		advName = fs.String("adversary", "figure1",
			"figure1|complete|isolation|lowerbound|random|singlesource|churn|partition|eventual|crash|witness")
		n            = fs.Int("n", 6, "number of processes")
		k            = fs.Int("k", 2, "k for the lowerbound adversary")
		roots        = fs.Int("roots", 1, "root components for the random adversary")
		noise        = fs.Int("noise", 0, "noisy prefix rounds")
		noiseP       = fs.Float64("noisep", 0.3, "noise edge probability")
		blocks       = fs.Int("blocks", 2, "partition blocks")
		prefix       = fs.Int("prefix", 0, "isolation prefix for the eventual adversary")
		crashes      = fs.Int("crashes", 1, "crash count for the crash adversary")
		seed         = fs.Int64("seed", 1, "random seed")
		maxRounds    = fs.Int("rounds", 0, "round bound (0 = automatic)")
		meter        = fs.Bool("meter", false, "measure encoded message sizes")
		conservative = fs.Bool("conservative", false, "use the repaired line-28 guard (r >= 2n-1)")
		mergeOwn     = fs.Bool("mergeown", false, "merge own previous graph (ablation)")
		showSkeleton = fs.Bool("skeleton", true, "print the stable skeleton")
		record       = fs.String("record", "", "write the run to this runfile before executing")
		replay       = fs.String("replay", "", "load the run from this runfile (overrides -adversary)")
		traceRun     = fs.Bool("trace", false, "print per-round PT sets and approximation graphs")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h prints usage and exits 0, as ExitOnError did
		}
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	var adv rounds.Adversary
	if *replay != "" {
		loaded, err := runfile.ReadFile(*replay)
		if err != nil {
			return err
		}
		adv = loaded
		*advName = "replay"
		*n = loaded.N()
	}
	switch *advName {
	case "replay":
		// Loaded above.
	case "figure1":
		adv = adversary.Figure1()
		*n = 6
	case "complete":
		adv = adversary.Complete(*n)
	case "isolation":
		adv = adversary.Isolation(*n)
	case "lowerbound":
		adv = adversary.LowerBound(*n, *k)
	case "random":
		adv = adversary.RandomSources(*n, *roots, *noise, *noiseP, rng)
	case "singlesource":
		adv = adversary.RandomSingleSource(*n, *noise, 0.2, *noiseP, rng)
	case "churn":
		adv = adversary.NewChurn(graph.RandomRootedSkeleton(*n, *roots, rng), *noiseP, *seed)
	case "partition":
		adv = adversary.Partition(*n, adversary.EvenPartition(*n, *blocks))
	case "eventual":
		adv = adversary.Eventual(adversary.Complete(*n), *prefix)
	case "crash":
		crashRun, sched := adversary.RandomCrashes(*n, *crashes, 3, rng)
		adv = crashRun
		for p, r := range sched.Rounds {
			if r > 0 {
				fmt.Fprintf(stdout, "schedule: p%d crashes in round %d\n", p+1, r)
			}
		}
	case "witness":
		adv = adversary.ConsensusViolation()
		*n = 4
	default:
		return fmt.Errorf("unknown adversary %q", *advName)
	}

	if *record != "" {
		rec, ok := adv.(*adversary.Run)
		if !ok {
			return fmt.Errorf("-record requires an eventually-constant adversary, not %q", *advName)
		}
		if err := runfile.WriteFile(*record, rec); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded run to %s\n", *record)
	}

	proposals := sim.SeqProposals(adv.N())
	if *advName == "witness" {
		proposals = adversary.ConsensusViolationProposals()
	}

	var observer rounds.Observer
	if *traceRun {
		observer = rounds.ObserverFunc(func(r int, g *graph.Digraph, procs []rounds.Algorithm) {
			fmt.Fprintf(stdout, "--- round %d (graph: %d edges) ---\n", r, g.NumEdges())
			for i, a := range procs {
				p := a.(*core.Process) // metered or not, observers see Algorithm 1 itself
				status := " "
				if p.Decided() {
					status = "D"
				}
				fmt.Fprintf(stdout, "  p%-2d %s x=%-4d PT=%v G={%v}\n",
					i+1, status, p.Estimate(), p.PT(), p.Approx())
			}
		})
	}

	out, err := sim.Execute(sim.Spec{
		Observer:      observer,
		Adversary:     adv,
		Proposals:     proposals,
		MaxRounds:     *maxRounds,
		MeterMessages: *meter,
		Params: core.Options{
			ConservativeDecide: *conservative,
			MergeOwnGraph:      *mergeOwn,
		},
	})
	if err != nil {
		return err
	}

	fmt.Fprint(stdout, out.String())
	fmt.Fprintf(stdout, "skeleton stabilized at round %d; root components: %d; MinK: %d\n",
		out.RST, out.RootComps, out.MinK)
	if *showSkeleton {
		fmt.Fprintln(stdout, "stable skeleton:")
		fmt.Fprint(stdout, graph.ASCII(out.Skeleton))
	}
	if *meter {
		fmt.Fprintf(stdout, "wire: %d messages, %.1f B avg, %d B max, %d B total\n",
			out.Meter.Messages, out.Meter.Avg(), out.Meter.MaxBytes, out.Meter.TotalBytes)
	}
	if err := out.CheckTermination(); err != nil {
		return err
	}
	if err := out.CheckValidity(); err != nil {
		return err
	}
	if got := len(out.DistinctDecisions()); got > out.MinK {
		fmt.Fprintf(stdout, "NOTE: %d distinct decisions exceed MinK=%d — the E10 guard flaw "+
			"(rerun with -conservative)\n", got, out.MinK)
	} else {
		fmt.Fprintf(stdout, "k-agreement: %d distinct decision(s) <= MinK=%d\n",
			len(out.DistinctDecisions()), out.MinK)
	}
	return nil
}
