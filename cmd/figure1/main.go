// Command figure1 reproduces the paper's Figure 1: it executes
// Algorithm 1 on the reconstructed 6-process run where Psrcs(3) holds and
// prints the skeleton graphs G^∩2 and G^∩∞ (Figures 1a, 1b) and p6's
// approximation graphs G¹p6..G⁸p6 (Figures 1c-1h plus the convergence to
// the steady state), followed by the decision table.
//
// Usage:
//
//	figure1 [-dot] [-rounds N]
//
// With -dot, Graphviz sources are emitted instead of text.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/skeleton"
	"kset/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figure1: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figure1", flag.ContinueOnError)
	fs.SetOutput(stdout)
	dot := fs.Bool("dot", false, "emit Graphviz dot instead of text")
	nRounds := fs.Int("rounds", 8, "rounds of p6's approximation to show")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h prints usage and exits 0, as ExitOnError did
		}
		return err
	}

	fig := adversary.Figure1()
	const n = 6
	const p6 = 5

	// Skeletons (Figures 1a and 1b).
	tr := skeleton.NewTracker(n, true)
	for r := 1; r <= *nRounds; r++ {
		tr.Observe(r, fig.Graph(r))
	}
	stable := fig.StableSkeleton()

	if *dot {
		fmt.Fprint(stdout, graph.DOT(tr.At(2), "G_cap_2", true))
		fmt.Fprint(stdout, graph.DOT(stable, "G_cap_inf", true))
	} else {
		fmt.Fprintln(stdout, "Figure 1a — round-2 skeleton G^∩2 (self-loops omitted in the paper):")
		fmt.Fprint(stdout, graph.ASCII(tr.At(2)))
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "Figure 1b — stable skeleton G^∩∞:")
		fmt.Fprint(stdout, graph.ASCII(stable))
		fmt.Fprintf(stdout, "\nroot components: ")
		for i, rc := range graph.RootComponents(stable) {
			if i > 0 {
				fmt.Fprint(stdout, ", ")
			}
			fmt.Fprint(stdout, rc)
		}
		fmt.Fprintf(stdout, "   (Psrcs(3) holds; MinK = 3)\n\n")
	}

	// Execute Algorithm 1 and show p6's approximation after each round.
	factory := core.NewFactory([]int64{1, 2, 3, 4, 5, 6}, core.Options{})
	figure := adversary.Figure1LabelMultisets()
	showP6 := rounds.ObserverFunc(func(r int, _ *graph.Digraph, procs []rounds.Algorithm) {
		approx := procs[p6].(*core.Process).Approx()
		if *dot {
			fmt.Fprint(stdout, graph.DOTLabeled(approx, fmt.Sprintf("G%d_p6", r), true))
			return
		}
		fmt.Fprintf(stdout, "Figure 1%c — G^%d_p6: %s\n", 'b'+byte(r), r, withoutSelfLoops(approx))
		if r <= len(figure) {
			fmt.Fprintf(stdout, "             paper labels: %v, measured: %v\n",
				figure[r-1], approx.LabelMultiset())
		}
	})
	if _, err := rounds.RunSequential(rounds.Config{
		Adversary:  fig,
		NewProcess: factory,
		MaxRounds:  *nRounds,
		Observer:   showP6,
	}); err != nil {
		return err
	}

	// Run to completion for the decision table.
	res, err := rounds.RunSequential(rounds.Config{
		Adversary:  fig,
		NewProcess: factory,
		MaxRounds:  50,
		StopWhen:   rounds.AllDecided,
	})
	if err != nil {
		return err
	}
	oc, err := trace.Collect(res)
	if err != nil {
		return err
	}
	if !*dot {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, oc.String())
		if err := oc.Check(3); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "k-agreement (k=3), validity, termination: all hold")
	}
	return nil
}

// withoutSelfLoops renders the labeled edges of g, skipping self-loops to
// match the paper's drawing convention.
func withoutSelfLoops(g *graph.Labeled) string {
	s := ""
	g.ForEachEdge(func(u, v, l int) {
		if u == v {
			return
		}
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("p%d-%d->p%d", u+1, l, v+1)
	})
	if s == "" {
		return "(no edges)"
	}
	return s
}
