// Command ksetbench runs the reproduction suite E1-E16 and E20
// (DESIGN.md §3) and prints the measured tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	ksetbench [-quick] [-trials N] [-seed S] [-workers W] [-only E5] [-json] [-timings=false]
//
// With -json the suite is emitted as one JSON document instead of text
// tables; CI records a smoke run of it as an artifact.
//
// Every experiment is deterministic given -trials and -seed, for any
// -workers value (the sweep engine delivers outcomes in cell order
// regardless of scheduling); pass
// -timings=false to also zero the per-experiment seconds and blank the
// wall-clock table columns (E20's ms/trial), making the -json document
// byte-identical across runs and worker counts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"kset/internal/experiments"
	"kset/internal/sim"
)

// jsonExperiment is one experiment record of the -json output.
type jsonExperiment struct {
	ID         string     `json:"id"`
	Name       string     `json:"name"`
	Seconds    float64    `json:"seconds"`
	Violations int        `json:"violations"`
	Notes      []string   `json:"notes,omitempty"`
	Header     []string   `json:"header,omitempty"`
	Rows       [][]string `json:"rows,omitempty"`
}

// jsonSuite is the top-level -json document.
type jsonSuite struct {
	Suite       string           `json:"suite"`
	Trials      int              `json:"trials"`
	Seed        int64            `json:"seed"`
	Experiments []jsonExperiment `json:"experiments"`
	Failures    int              `json:"failures"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ksetbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ksetbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		quick   = fs.Bool("quick", false, "reduced trial counts")
		trials  = fs.Int("trials", 0, "override trials per cell")
		seed    = fs.Int64("seed", 0, "override experiment seed")
		workers = fs.Int("workers", 0, "override sweep worker count")
		only    = fs.String("only", "", "run only the experiment with this id (e.g. E5)")
		asJSON  = fs.Bool("json", false, "emit one JSON document instead of text tables")
		timings = fs.Bool("timings", true, "record wall-clock measurements: per-experiment seconds and ms/trial columns (disable for byte-stable output)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h prints usage and exits 0, as ExitOnError did
		}
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *trials < 0 || *workers < 0 {
		return fmt.Errorf("-trials = %d, -workers = %d: need >= 0 (0: the suite's default)", *trials, *workers)
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}

	steps := experiments.Suite(cfg)
	var ids []string
	for i := range steps {
		ids = append(ids, steps[i].ID)
		// Quick mode runs the suite's n = {128, 256} rung; the full
		// ladder to n = 1024 takes tens of minutes.
		if steps[i].ID == "E20" && !*quick {
			steps[i].Run = func() (*experiments.Result, error) { return experiments.E20LargeN(cfg) }
		}
	}

	suite := jsonSuite{
		Suite:  "k-set agreement with stable skeleton graphs — reproduction suite",
		Trials: cfg.Trials,
		Seed:   cfg.Seed,
	}
	if !*asJSON {
		fmt.Fprintf(stdout, "%s\n", suite.Suite)
		fmt.Fprintf(stdout, "trials/cell=%d seed=%d\n\n", cfg.Trials, cfg.Seed)
	}
	ran := 0
	for _, s := range steps {
		if *only != "" && s.ID != *only {
			continue
		}
		ran++
		start := time.Now()
		res, err := s.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		secs := time.Since(start).Seconds()
		if !*timings {
			secs = 0
			maskWallClock(res.Table)
		}
		if res.Violations != 0 {
			suite.Failures++
		}
		if *asJSON {
			rec := jsonExperiment{
				ID:         s.ID,
				Name:       res.Name,
				Seconds:    secs,
				Violations: res.Violations,
				Notes:      res.Notes,
			}
			if res.Table != nil {
				rec.Header = res.Table.Header
				rec.Rows = res.Table.Rows()
			}
			suite.Experiments = append(suite.Experiments, rec)
			continue
		}
		fmt.Fprintf(stdout, "=== %s (%.1fs)\n", res.Name, secs)
		fmt.Fprintln(stdout, res.Table.Render())
		for _, note := range res.Notes {
			fmt.Fprintf(stdout, "  note: %s\n", note)
		}
		if res.Violations != 0 {
			fmt.Fprintf(stdout, "  *** %d VIOLATIONS ***\n", res.Violations)
		}
		fmt.Fprintln(stdout)
	}
	if ran == 0 {
		return fmt.Errorf("-only %s matches no experiment (have %s)", *only, strings.Join(ids, ", "))
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(suite); err != nil {
			return err
		}
	}
	if suite.Failures > 0 {
		return fmt.Errorf("%d experiment(s) reported violations", suite.Failures)
	}
	return nil
}

// maskWallClock blanks the one table column that is a wall-clock
// measurement rather than a function of (-trials, -seed): E20's ms/trial.
func maskWallClock(t *sim.Table) {
	if t == nil {
		return
	}
	for c, h := range t.Header {
		if h != "ms/trial" {
			continue
		}
		for _, row := range t.Rows() {
			row[c] = "-"
		}
	}
}
