package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"regexp"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/runtime"
	"kset/internal/sim"
	"kset/internal/transport"
)

// TestBenchmarkJSONMatchesProgram keeps the declared workloads and
// metrics equal to the ones the program emits, and inside the
// contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	doc, err := readBenchmarkDoc("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) || len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d (limit 2..8)", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name() {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].Name())
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	metrics := func(kind string, declared []docMetric, defs []metricDef, limit int, bounded bool) {
		t.Helper()
		if len(declared) != len(defs) || len(declared) < 1 || len(declared) > limit {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d (limit %d)", kind, len(declared), len(defs), limit)
		}
		for i, m := range declared {
			name(m.Name)
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json says %s/%s/%s, the program %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the allowed characters", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25]", m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	metrics("end_to_end", doc.EndToEnd, endToEnd, 16, true)
	metrics("per_layer", doc.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
}

// TestSmoke runs every workload at ~1% size, untraced and traced, and
// requires a correct result carrying exactly the declared metrics.
func TestSmoke(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		for _, w := range workloads {
			var stdout bytes.Buffer
			args := []string{"-smoke", "-seconds", "0.25", "-workload", w.Name(), "-trace", trace}
			if err := run(args, &stdout, io.Discard); err != nil {
				t.Errorf("%s trace=%s: %v", w.Name(), trace, err)
				continue
			}
			var res result
			dec := json.NewDecoder(&stdout)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Errorf("%s trace=%s: result line: %v", w.Name(), trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name(), trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name(), trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s missing or in unit %q", w.Name(), trace, d.name, m.Unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name(), d.name, m.Value)
				}
			}
		}
	}
}

// TestDecoratorsLeaveOutcomesUnchanged runs the same schedule through
// the lockstep simulator and through the fully decorated runtime on
// each transport, and requires identical outcomes.
func TestDecoratorsLeaveOutcomesUnchanged(t *testing.T) {
	for _, family := range []string{algo.KSet, algo.Approx} {
		for _, m := range []mesh{
			{kind: "sim"},
			{kind: "inproc"},
			{kind: "tcp", nodes: 2},
			// The generous deadline runtime.Diff uses, so that a quiet
			// loopback loses nothing and the comparison is bit-exact.
			{kind: "udp", udp: transport.UDPOpts{RoundTimeout: 250 * time.Millisecond, Grace: 2 * time.Millisecond}},
		} {
			rng := rand.New(rand.NewSource(7))
			spec := sim.Spec{
				Adversary: adversary.RandomSources(8, 2, 4, 0.25, rng),
				Proposals: sim.SeqProposals(8),
				Algorithm: family,
			}
			want, err := sim.Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			m.algorithm = family
			tr := newTracing()
			ot := newOpTrace(tr.rec, 0, tr.window, family, 8)
			ot.probe = &graphProbe{rec: tr.rec}
			spec.Runner = ot.runner(m)
			got, err := sim.Execute(spec)
			if err != nil {
				t.Fatalf("%s over %s: %v", family, m.kind, err)
			}
			if err := runtime.CompareOutcomes(want, got); err != nil {
				t.Errorf("%s over %s: decorated run diverged: %v", family, m.kind, err)
			}
			if ot.rounds != want.Rounds || ot.procs[0].transition.n != int64(want.Rounds) {
				t.Errorf("%s over %s: decorators saw %d rounds and %d transitions of p1, the run had %d",
					family, m.kind, ot.rounds, ot.procs[0].transition.n, want.Rounds)
			}
		}
	}
}

// TestRollUpSelfTime pins the recorder's arithmetic: self time is a
// span's wall-clock equivalent minus its children's, lanes divided out.
func TestRollUpSelfTime(t *testing.T) {
	rec := newRecorder()
	rec.spans = []span{
		{ID: 0, Parent: -1, Name: "run", Busy: 1000, Count: 1, Lanes: 1},
		{ID: 1, Parent: 0, Name: "procs", Busy: 3600, Count: 4, Lanes: 4}, // 900 wall
		{ID: 2, Parent: 1, Name: "work", Busy: 1200, Count: 40, Lanes: 4}, // 300 wall
	}
	rows := rec.rollUp()
	for name, want := range map[string][2]float64{"run": {100, 100}, "procs": {600, 2400}, "work": {300, 1200}} {
		if got := rows[name]; got.Self != want[0] || got.SelfBusy != want[1] {
			t.Errorf("%s: self %v / %v, want %v / %v", name, got.Self, got.SelfBusy, want[0], want[1])
		}
	}
}
