package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"kset/internal/stats"
)

// The quick configuration keeps the full suite affordable in go test;
// cmd/ksetbench runs DefaultConfig for EXPERIMENTS.md.

func TestE1Figure1(t *testing.T) {
	res, err := e1Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("E1 violations: %d\n%s", res.Violations, res.Table.Render())
	}
	if res.Table.NumRows() != 8 {
		t.Fatalf("E1 rows = %d", res.Table.NumRows())
	}
	rendered := res.Table.Render()
	for _, want := range []string{"[1 1]", "[2 2 1 1]", "[3 2 1 1]", "exact"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("E1 table missing %q:\n%s", want, rendered)
		}
	}
}

func TestE2RootComponents(t *testing.T) {
	res, err := e2RootComponents(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("Theorem 1 violated:\n%s", res.Table.Render())
	}
}

func TestE3LowerBound(t *testing.T) {
	res, err := e3LowerBound(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("Theorem 2 tightness violated:\n%s", res.Table.Render())
	}
	if !strings.Contains(res.Table.Render(), "violated (expected)") {
		t.Fatal("E3 should show (k-1)-agreement failing")
	}
}

func TestE4DecisionRounds(t *testing.T) {
	res, err := e4DecisionRounds(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("Lemma 11 bound violated:\n%s", res.Table.Render())
	}
}

func TestE5MessageComplexity(t *testing.T) {
	res, err := e5MessageComplexity(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("message growth unexpected:\n%s", res.Table.Render())
	}
	if len(res.Notes) == 0 || !strings.Contains(res.Notes[0], "n^") {
		t.Fatalf("E5 notes missing exponent: %v", res.Notes)
	}
}

func TestE6Baselines(t *testing.T) {
	res, err := e6Baselines(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("baseline comparison unexpected:\n%s", res.Table.Render())
	}
	rendered := res.Table.Render()
	if !strings.Contains(rendered, "VIOLATES") {
		t.Fatalf("E6 should show FloodMin violating on the loss run:\n%s", rendered)
	}
}

func TestE7Consensus(t *testing.T) {
	res, err := e7Consensus(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("consensus claim violated:\n%s", res.Table.Render())
	}
}

func TestE8Eventual(t *testing.T) {
	res, err := e8Eventual(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("eventual argument mismatch:\n%s", res.Table.Render())
	}
}

func TestE9Ablations(t *testing.T) {
	cfg := QuickConfig()
	cfg.Trials = 8
	res, err := e9Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("ablation broke correctness:\n%s", res.Table.Render())
	}
	if res.Table.NumRows() != 4 {
		t.Fatalf("E9 rows = %d", res.Table.NumRows())
	}
}

func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	cfg := QuickConfig()
	cfg.Trials = 5
	suite := Suite(cfg)
	if len(suite) != 18 {
		t.Fatalf("suite size = %d", len(suite))
	}
	for _, e := range suite {
		r, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d violations", r.Name, r.Violations)
		}
		if r.Table == nil || r.Table.NumRows() == 0 {
			t.Errorf("%s: empty table", r.Name)
		}
	}
}

func TestE10GuardFlaw(t *testing.T) {
	res, err := e10GuardFlaw(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("E10 unexpected:\n%s", res.Table.Render())
	}
	rendered := res.Table.Render()
	if !strings.Contains(rendered, "VIOLATES") {
		t.Fatalf("E10 must show the published guard violating:\n%s", rendered)
	}
	if !strings.Contains(rendered, "repaired r>=2n-1") {
		t.Fatalf("E10 must include the repaired guard:\n%s", rendered)
	}
}

func TestE11Convergence(t *testing.T) {
	res, err := e11Convergence(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("convergence lag exceeded 2n:\n%s", res.Table.Render())
	}
	if res.Table.NumRows() != 6 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
}

func TestE12Mobile(t *testing.T) {
	res, err := e12Mobile(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("mobile regime unexpected:\n%s", res.Table.Render())
	}
	if res.Table.NumRows() != 9 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
}

func TestE13TInterval(t *testing.T) {
	res, err := e13TInterval(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("T-interval regime violated Theorem 1:\n%s", res.Table.Render())
	}
	if res.Table.NumRows() != 6 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
}

func TestE14PartitionMerge(t *testing.T) {
	res, err := e14PartitionMerge(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("partition bound not tight:\n%s", res.Table.Render())
	}
	if res.Table.NumRows() != 15 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
}

func TestE15VertexStable(t *testing.T) {
	res, err := e15VertexStable(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("stale-edge bound or consensus violated:\n%s", res.Table.Render())
	}
	if !strings.Contains(res.Table.Render(), "true") {
		t.Fatalf("E15 should reach consensus:\n%s", res.Table.Render())
	}
}

func TestE16Scaling(t *testing.T) {
	cfg := QuickConfig()
	cfg.Trials = 8
	res, err := e16Scaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("scaling sweep violated bounds:\n%s", res.Table.Render())
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	// The latency quantiles are exact: recompute each row's last
	// decision rounds and compare the printed p50/p95 cells.
	for ni, row := range res.Table.Rows() {
		n, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatal(err)
		}
		var last []float64
		for cell := 0; cell < cfg.Trials; cell++ {
			out, err := e16Cell(cfg, ni, n)(cell)
			if err != nil {
				t.Fatal(err)
			}
			last = append(last, float64(out.MaxDecisionRound()))
		}
		p50, p95 := stats.Percentile(last, 50), stats.Percentile(last, 95)
		if want := []string{fmt.Sprintf("%.2f", p50), fmt.Sprintf("%.2f", p95)}; row[3] != want[0] || row[4] != want[1] {
			t.Errorf("n=%d: p50, p95 cells = %s, %s; want %v", n, row[3], row[4], want)
		}
		if lo, hi := parseFloat(t, row[3]), parseFloat(t, row[4]); lo > hi {
			t.Errorf("n=%d: p50 cell %v > p95 cell %v", n, lo, hi)
		}
	}
}

// TestDynamicSuiteWorkerIndependent pins the sweep determinism
// contract at the experiment level: the rendered tables of E13-E16 must
// be byte-identical for 1 and 8 sweep workers.
func TestDynamicSuiteWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("worker-independence sweep in short mode")
	}
	steps := []func(Config) (*Result, error){
		e13TInterval, e14PartitionMerge, e15VertexStable, e16Scaling,
	}
	for i, step := range steps {
		cfg := QuickConfig()
		cfg.Trials = 6
		cfg.Workers = 1
		a, err := step(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		b, err := step(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Table.Render() != b.Table.Render() {
			t.Errorf("E%d table depends on worker count:\n--- workers=1\n%s\n--- workers=8\n%s",
				13+i, a.Table.Render(), b.Table.Render())
		}
	}
}

func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
