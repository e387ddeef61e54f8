package experiments

import (
	"os"
	"testing"
)

// TestE20Smoke runs the n = 128 rung of the scaling sweep — the smallest
// size at which every bitset kernel takes its multi-word path — within
// the tier-1 time budget. The full sweep up to n = 1024 runs via
// cmd/ksetbench and the nightly lane below.
func TestE20Smoke(t *testing.T) {
	cfg := QuickConfig()
	cfg.Trials = 6
	res, err := e20(cfg, []int{128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("E20 violations at n=128: %d\n%s", res.Violations, res.Table.Render())
	}
	if got, want := res.Table.NumRows(), len(e20Hubs(128)); got != want {
		t.Fatalf("E20 rows = %d, want %d", got, want)
	}
}

// TestE20Nightly512 is the deep rung: n = 512 with 8-word bitset rows.
// Too slow for every push, it runs in the nightly workflow (and locally
// via KSET_NIGHTLY=1 go test ./internal/experiments -run TestE20Nightly).
func TestE20Nightly512(t *testing.T) {
	if os.Getenv("KSET_NIGHTLY") == "" {
		t.Skip("set KSET_NIGHTLY=1 to run the n=512 scaling rung")
	}
	cfg := QuickConfig()
	res, err := e20(cfg, []int{512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("E20 violations at n=512: %d\n%s", res.Violations, res.Table.Render())
	}
}
