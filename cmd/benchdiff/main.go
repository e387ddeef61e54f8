// Command benchdiff is the CI benchmark-regression gate: it parses
// `go test -bench` output, records a baseline, and compares a later run
// against it with benchstat-style medians.
//
// The gated set is the BenchmarkHot family (zero-alloc algorithm hot
// paths) plus BenchmarkTransportRound (round latency of the wire layer
// on every transport). No baseline is committed — ns/op only means
// something between two builds on one machine — so CI's bench-gate job
// records it from the merge-base on the runner that then measures HEAD:
//
//	go test -run '^$' -bench 'BenchmarkHot|BenchmarkTransportRound' \
//	    -count 5 -benchmem . > bench-base.txt        # in a merge-base checkout
//	go run ./cmd/benchdiff -record -input bench-base.txt -out bench-baseline.json
//
// Gate HEAD against it (nonzero exit on regression):
//
//	go run ./cmd/benchdiff -compare bench-baseline.json -input bench-new.txt \
//	    -tolerance 0.15 -report bench-report.json
//
// Gate rules, per benchmark present in the baseline:
//
//   - median ns/op more than -tolerance (default 15%) above baseline → FAIL
//   - allocs/op > 0 where the baseline is 0 (the zero-allocation hot
//     paths pinned since PR 1) → FAIL
//   - allocs/op above a nonzero baseline median → FAIL (allocation
//     counts are deterministic; any growth is a real regression)
//   - benchmark missing from the new run → FAIL
//
// Improvements and new benchmarks are reported but never fail. The
// -report file is a machine-readable comparison for CI artifacts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"kset/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Baseline is the committed benchmark reference.
type Baseline struct {
	// Note documents how the baseline was produced.
	Note       string               `json:"note,omitempty"`
	Benchmarks map[string]BenchStat `json:"benchmarks"`
}

// BenchStat is one benchmark's aggregated samples (medians).
type BenchStat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// Comparison is the -report document.
type Comparison struct {
	Tolerance float64  `json:"tolerance"`
	Rows      []Row    `json:"rows"`
	Failures  []string `json:"failures"`
}

// Row compares one benchmark against its baseline.
type Row struct {
	Name      string  `json:"name"`
	BaseNs    float64 `json:"base_ns_per_op"`
	NewNs     float64 `json:"new_ns_per_op"`
	DeltaPct  float64 `json:"delta_pct"`
	BaseAlloc int64   `json:"base_allocs_per_op"`
	NewAlloc  int64   `json:"new_allocs_per_op"`
	Verdict   string  `json:"verdict"` // ok | improved | FAIL reason
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stdout)
	record := fs.Bool("record", false, "record a baseline instead of comparing")
	compare := fs.String("compare", "", "baseline JSON to compare against")
	input := fs.String("input", "", "go test -bench output to read (default stdin)")
	out := fs.String("out", "", "where -record writes the baseline (default stdout)")
	report := fs.String("report", "", "where -compare writes the JSON comparison (optional)")
	tolerance := fs.Float64("tolerance", 0.15, "allowed fractional ns/op regression")
	note := fs.String("note", "", "free-form note stored in a recorded baseline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *record == (*compare != "") {
		return fmt.Errorf("need exactly one of -record or -compare")
	}

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}

	if *record {
		base := Baseline{Note: *note, Benchmarks: measured}
		raw, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if *out == "" {
			_, err = stdout.Write(raw)
			return err
		}
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %d benchmarks to %s\n", len(measured), *out)
		return nil
	}

	raw, err := os.ReadFile(*compare)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", *compare, err)
	}
	cmp := diff(base, measured, *tolerance)
	printComparison(stdout, cmp)
	if *report != "" {
		rep, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*report, append(rep, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(cmp.Failures) > 0 {
		return fmt.Errorf("%d benchmark regression(s)", len(cmp.Failures))
	}
	fmt.Fprintf(stdout, "benchmark gate PASS: %d benchmarks within tolerance %.0f%%\n",
		len(cmp.Rows), *tolerance*100)
	return nil
}

// benchLine matches `go test -bench -benchmem` result lines, e.g.
// "BenchmarkHotTransition/n=32-8  123456  9876 ns/op  12 B/op  0 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

type samples struct {
	ns, bytes, allocs []float64
}

// parseBench aggregates repeated samples (-count N) per benchmark name
// (GOMAXPROCS suffix stripped) into medians.
func parseBench(r io.Reader) (map[string]BenchStat, error) {
	acc := map[string]*samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		s := acc[m[1]]
		if s == nil {
			s = &samples{}
			acc[m[1]] = s
		}
		s.ns = append(s.ns, ns)
		s.bytes = append(s.bytes, parseCount(m[3]))
		s.allocs = append(s.allocs, parseCount(m[4]))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]BenchStat{}
	for name, s := range acc {
		out[name] = BenchStat{
			NsPerOp:     stats.Median(s.ns),
			BytesPerOp:  int64(math.Round(stats.Median(s.bytes))),
			AllocsPerOp: int64(math.Round(stats.Median(s.allocs))),
			Samples:     len(s.ns),
		}
	}
	return out, nil
}

// parseCount reads an optional B/op or allocs/op column; 0 if absent.
func parseCount(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

// diff applies the gate rules.
func diff(base Baseline, got map[string]BenchStat, tol float64) Comparison {
	cmp := Comparison{Tolerance: tol}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		g, ok := got[name]
		if !ok {
			cmp.Failures = append(cmp.Failures, fmt.Sprintf("%s: missing from new run", name))
			cmp.Rows = append(cmp.Rows, Row{Name: name, BaseNs: b.NsPerOp, BaseAlloc: b.AllocsPerOp, Verdict: "FAIL missing from new run"})
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (g.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		row := Row{
			Name: name, BaseNs: b.NsPerOp, NewNs: g.NsPerOp, DeltaPct: delta * 100,
			BaseAlloc: b.AllocsPerOp, NewAlloc: g.AllocsPerOp, Verdict: "ok",
		}
		switch {
		case b.AllocsPerOp == 0 && g.AllocsPerOp > 0:
			row.Verdict = fmt.Sprintf("FAIL 0-alloc path now allocates %d/op", g.AllocsPerOp)
		case g.AllocsPerOp > b.AllocsPerOp:
			row.Verdict = fmt.Sprintf("FAIL allocs %d -> %d per op", b.AllocsPerOp, g.AllocsPerOp)
		case delta > tol:
			row.Verdict = fmt.Sprintf("FAIL ns/op +%.1f%% (tolerance %.0f%%)", delta*100, tol*100)
		case delta < -0.10:
			row.Verdict = "improved"
		}
		if strings.HasPrefix(row.Verdict, "FAIL") {
			cmp.Failures = append(cmp.Failures, fmt.Sprintf("%s: %s", name, row.Verdict))
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	// New benchmarks are informational.
	for name, g := range got {
		if _, ok := base.Benchmarks[name]; !ok {
			cmp.Rows = append(cmp.Rows, Row{Name: name, NewNs: g.NsPerOp, NewAlloc: g.AllocsPerOp, Verdict: "new (not gated)"})
		}
	}
	return cmp
}

func printComparison(w io.Writer, cmp Comparison) {
	fmt.Fprintf(w, "%-44s %14s %14s %8s %7s %7s  %s\n",
		"benchmark", "base ns/op", "new ns/op", "delta", "allocs", "→", "verdict")
	for _, r := range cmp.Rows {
		fmt.Fprintf(w, "%-44s %14.1f %14.1f %7.1f%% %7d %7d  %s\n",
			r.Name, r.BaseNs, r.NewNs, r.DeltaPct, r.BaseAlloc, r.NewAlloc, r.Verdict)
	}
}
