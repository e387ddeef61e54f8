// Command benchmark is the one benchmark of the whole stack: seven named
// workloads that together exercise every layer (bitset kernels and
// Algorithm 1, the lockstep executor, the live runtime over the in-proc,
// TCP and UDP meshes, and the ksetd session service), the end-to-end
// metrics a user of the system sees, and a traced per-layer ledger.
// BENCHMARK.json at the root of the repo declares the same workloads and
// metrics; README.md in this directory explains them.
//
//	bash benchmark/run.sh --workload svc_inproc --seed 1 --seconds 10 --trace 0
//
// measures one workload with tracing off and prints, as the last line of
// standard output, one JSON object with every end-to-end metric;
// --trace 1 prints every per-layer metric instead. Without --workload
// all seven run in turn. One process hosts the system under test and
// generates the load; inputs are generated from --seed alone.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"kset/internal/stats"
	"kset/internal/transport"
)

// config is what one measurement needs to know.
type config struct {
	seed     int64
	seconds  float64 // length of the timed window
	trace    bool
	smoke    bool   // ~1% sizes, one set-up: the test's mode
	traceOut string // file the spans of a traced run are written to
	log      io.Writer
}

// workload is one named workload.
type workload interface {
	Name() string
	// Measure sets the workload up, runs its timed window and returns
	// the result: the end-to-end metrics, or with cfg.trace the
	// per-layer ones. An error means the benchmark itself could not run
	// (a set-up that failed its verification included); operations that
	// fail inside the window are counted in the result.
	Measure(cfg *config) (*result, error)
}

// The round deadlines of the two UDP workloads. The transport's default
// of 2ms is not safe on a shared host: a node whose writer goroutine is
// not scheduled for four deadlines (~9ms) lets its processes run four
// rounds ahead on deadline-closed gathers, and the run dies with
// "overran the writer window" (the window is 4 rounds). Six busy loops
// beside the benchmark do that to the first operation of run_udp_mn_n8;
// README.md, "UDP round deadlines", has the measurements.
const (
	// Without injected loss every round closes by count, so the deadline
	// only decides what a late frame costs. 50ms survives a 200ms stall
	// and makes a late frame cost its real delay instead of a lost link.
	losslessRoundTimeout = 50 * time.Millisecond
	// With 10% loss the deadline is what the workload measures, so it
	// stays short: 5ms needs a 21ms stall to overrun the window.
	lossyRoundTimeout = 5 * time.Millisecond
)

// workloads is the benchmark's table. Sizes are fixed so that two
// commits see the same inputs; only the number of operations that fit
// in the window varies. BENCHMARK.json records why each one exists.
var workloads = []workload{
	svcWorkload{name: "svc_inproc", transport: "inproc", warmup: 500, smokeWarmup: 16},
	svcWorkload{name: "svc_tcp", transport: "tcp", warmup: 48, smokeWarmup: 8},
	runWorkload{name: "run_inproc_n16", n: 16, mesh: mesh{kind: "inproc"}, rounds: 5000, smokeRounds: 250},
	runWorkload{name: "sim_hub_n256", n: 256, mesh: mesh{kind: "sim"}, smokeN: 64},
	runWorkload{name: "run_tcp_m2_n8", n: 8, mesh: mesh{kind: "tcp", nodes: 2}, rounds: 12000, smokeRounds: 600},
	runWorkload{name: "run_udp_mn_n8", n: 8, mesh: mesh{kind: "udp", udp: transport.UDPOpts{RoundTimeout: losslessRoundTimeout}}, rounds: 4000, smokeRounds: 200},
	runWorkload{name: "run_udp_loss10", n: 8, mesh: mesh{kind: "udp", nodes: 2, loss: 0.10, udp: transport.UDPOpts{RoundTimeout: lossyRoundTimeout}}, rounds: 1000, smokeRounds: 100},
}

// medianSetup runs one workload's set-up several times and returns the
// median wall time in seconds, so that one slow start does not decide
// setup_s. Smoke and traced runs, which do not report it, set up once.
func medianSetup(cfg *config, setup func(last bool) error) (float64, error) {
	times := 3
	if cfg.smoke || cfg.trace {
		times = 1
	}
	var secs []float64
	for i := 0; i < times; i++ {
		start := time.Now()
		if err := setup(i == times-1); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return stats.Median(secs), nil
}

// finishTrace turns a finished traced window into the per-layer
// metrics, prints the ledger and writes the spans out if asked to.
func finishTrace(cfg *config, name string, tr *tracing, extra map[string]float64, res *result) error {
	rows := tr.rec.rollUp()
	window := rows["bench.window"].Wall
	res.setMetrics(perLayer, perLayerValues(rows, tr.totals, window, extra))
	fmt.Fprintf(cfg.log, "%s ledger (self time of every span, wall-clock equivalent, share of the traced window):\n", name)
	printLedger(cfg.log, rows, window)
	if cfg.traceOut == "" {
		return nil
	}
	f, err := os.Create(cfg.traceOut)
	if err != nil {
		return err
	}
	if err := tr.rec.writeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measure runs one workload and settles its verdict.
func measure(w workload, cfg *config) (*result, error) {
	res, err := w.Measure(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name(), err)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, f := range res.failures {
		fmt.Fprintf(cfg.log, "%s: FAILED operation: %s\n", w.Name(), f)
	}
	return res, nil
}

// printMetrics writes a result's metrics by name with their units.
func printMetrics(out io.Writer, name string, defs []metricDef, res *result) {
	fmt.Fprintf(out, "%s: %d operations attempted, %d failed\n", name, res.Attempted, res.Failed)
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(out, "  %-38s %16.4f %s\n", d.name, m.Value, m.Unit)
	}
}

// environment describes the run protocol's fixed points for the log.
func environment() string {
	cpu := "unknown CPU"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s %s/%s, GOMAXPROCS=%d of %d CPUs (%s), %d clients",
		goruntime.Version(), goruntime.GOOS, goruntime.GOARCH, goruntime.GOMAXPROCS(0), goruntime.NumCPU(), cpu, clients())
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all seven")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window of one workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
	smoke := fs.Bool("smoke", false, "run at ~1% size with one set-up (the test's mode)")
	repeat := fs.Int("repeat", 1, "with 2, run everything twice and fail if an end-to-end pair disagrees by more than its bound")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || *repeat < 1 || *repeat > 2 {
		return fmt.Errorf("need -seconds > 0, -trace 0 or 1, -repeat 1 or 2")
	}
	// The run protocol: every processor the machine has, and no more
	// clients or connections than processors.
	goruntime.GOMAXPROCS(goruntime.NumCPU())
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, traceOut: *traceOut, log: stderr}
	fmt.Fprintln(stderr, "benchmark:", environment())

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.Name() == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}

	var sets []map[string]*result
	for set := 0; set < *repeat; set++ {
		results := map[string]*result{}
		for _, w := range selected {
			res, err := measure(w, cfg)
			if err != nil {
				return err
			}
			results[w.Name()] = res
			printMetrics(stderr, w.Name(), defs, res)
		}
		sets = append(sets, results)
	}
	agree := true
	if *repeat == 2 && !cfg.trace {
		agree = compareSets(stderr, selected, sets[0], sets[1])
	}

	// The last line of standard output is the result: of the one
	// workload asked for, or of all of them keyed by name.
	last := sets[len(sets)-1]
	correct := agree
	var line any = last
	if *name != "" {
		line = last[*name]
	}
	for _, results := range sets {
		for _, res := range results {
			correct = correct && res.Correct
		}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("operations failed their output check, or two sets of runs disagreed; see above")
	}
	return nil
}

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []docMetric `json:"end_to_end"`
	PerLayer []docMetric `json:"per_layer"`
}

type docMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// readBenchmarkDoc reads BENCHMARK.json strictly: an unknown key is an
// error, as it is to the driver.
func readBenchmarkDoc(path string) (benchmarkDoc, error) {
	var doc benchmarkDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareSets is the -repeat 2 self-check: per metric and workload, both
// values, how much worse the second is than the first, and the bound.
func compareSets(out io.Writer, selected []workload, a, b map[string]*result) bool {
	// The bounds are BENCHMARK.json's, in the current directory: the
	// root of the checkout.
	doc, err := readBenchmarkDoc("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(out, "repeat: cannot read the bounds: %v\n", err)
		return false
	}
	bound := map[string]float64{}
	for _, m := range doc.EndToEnd {
		if m.Bound != nil {
			bound[m.Name] = *m.Bound
		}
	}
	ok := true
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	names := make([]string, 0, len(selected))
	for _, w := range selected {
		names = append(names, w.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		for _, d := range endToEnd {
			x, y := a[name].Metrics[d.name].Value, b[name].Metrics[d.name].Value
			worse := (y - x) / x
			if d.better == "higher" {
				worse = (x - y) / x
			}
			verdict := ""
			if worse > bound[d.name] {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Fprintf(out, "%-16s %-16s %14.4f %14.4f %7.1f%% %6.0f%%%s\n",
				name, d.name, x, y, 100*worse, 100*bound[d.name], verdict)
		}
	}
	return ok
}
