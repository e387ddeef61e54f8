package service

// Sessions through the algorithm-generic seam: approx sessions end to
// end on every transport, the validation fences between family-specific
// spec fields, the HTTP 400 contract for unknown algorithm names, and
// the labeled per-family metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kset/internal/algo"
	"kset/internal/approx"
	"kset/internal/rounds"
)

func TestApproxSessionLifecycle(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	specs := []SessionSpec{
		{N: 5, Family: "rooted", Roots: 1, Seed: 21, Algorithm: "approx"},
		{N: 6, Family: "single_source", Seed: 22, Algorithm: "approx", Vertices: 9},
		{N: 5, Family: "rooted", Roots: 1, Seed: 23, Algorithm: "approx", Vertices: 8, Cycle: true},
		{N: 4, Family: "rooted", Roots: 1, Seed: 24, Algorithm: "approx", Transport: "tcp"},
		{N: 4, Family: "single_source", Seed: 25, Algorithm: "approx", Transport: "udp"},
	}
	res := s.Submit(specs)
	for i, r := range res {
		if r.Error != "" {
			t.Fatalf("spec %d rejected: %s", i, r.Error)
		}
		sess := waitDone(t, s, r.ID)
		if sess.Status != "done" {
			t.Fatalf("spec %d: status %s, error %s", i, sess.Status, sess.Error)
		}
		if !sess.Result.AllDecided {
			t.Errorf("spec %d: not all processes decided", i)
		}
		if !sess.Result.KBound {
			t.Errorf("spec %d: approx agreement oracle fired", i)
		}
		// Single-rooted stabilizing schedules are inside the regime the
		// family claims convergence in: decisions pairwise adjacent on
		// the session's target graph.
		g := approx.Graph{Shape: approx.Path, V: specs[i].Vertices}
		if specs[i].Cycle {
			g.Shape = approx.Cycle
		}
		if g.V == 0 {
			g.V = specs[i].N + 1
		}
		for a := 0; a < len(sess.Result.Decisions); a++ {
			for b := a + 1; b < len(sess.Result.Decisions); b++ {
				da, db := sess.Result.Decisions[a], sess.Result.Decisions[b]
				if d := approx.Dist(g, da, db); d > 1 {
					t.Errorf("spec %d: p%d=%d and p%d=%d at distance %d on %s-%d",
						i, a+1, da, b+1, db, d, g.Shape, g.V)
				}
			}
		}
	}
}

func TestAlgorithmFieldValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	res := s.Submit([]SessionSpec{
		{N: 4, Family: "rooted", Algorithm: "approx", Seed: 1},                     // valid
		{N: 4, Family: "rooted", Algorithm: "paxos"},                               // unknown family
		{N: 4, Family: "rooted", Vertices: 7},                                      // vertices on kset
		{N: 4, Family: "rooted", Cycle: true},                                      // cycle on kset
		{N: 4, Family: "rooted", Algorithm: "approx", Cycle: true, Vertices: 3},    // cycle too small for adjacency claims? (normalize rejects V<3)
		{N: 4, Family: "rooted", Algorithm: "approx", FaithfulGuard: true},         // kset-only guard
		{N: 3, Family: "rooted", Algorithm: "approx", Proposals: []int64{0, 1, 9}}, // proposal outside vertex range
	})
	if res[0].Error != "" {
		t.Fatalf("valid approx spec rejected: %s", res[0].Error)
	}
	waitDone(t, s, res[0].ID)
	for i, r := range res[1:] {
		if r.Error == "" {
			t.Errorf("invalid spec %d accepted: %+v", i+1, r)
		}
	}
	if !strings.Contains(res[1].Error, "kset") || !strings.Contains(res[1].Error, "approx") {
		t.Errorf("unknown-algorithm error %q does not list the registered names", res[1].Error)
	}
}

// TestSubmitUnknownAlgorithmHTTP pins the HTTP contract: an unknown
// algorithm name fails the whole batch with 400 and the response body
// names the offending session and the valid algorithms.
func TestSubmitUnknownAlgorithmHTTP(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"sessions":[{"n":4,"family":"rooted"},{"n":4,"family":"rooted","algorithm":"raft"}]}`
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var payload struct {
		Error           string   `json:"error"`
		ValidAlgorithms []string `json:"valid_algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(payload.Error, "sessions[1]") || !strings.Contains(payload.Error, "raft") {
		t.Errorf("error %q does not identify the bad session", payload.Error)
	}
	has := map[string]bool{}
	for _, name := range payload.ValidAlgorithms {
		has[name] = true
	}
	if !has["kset"] || !has["approx"] {
		t.Errorf("valid_algorithms %v missing registered families", payload.ValidAlgorithms)
	}
}

// TestAlgorithmMetricsLabels runs one session of each family and checks
// the labeled per-family counters appear in /metrics — additively: the
// unlabeled load-bearing ksetd_* names (what ksetload and the e2e
// scrape parse) must remain untouched alongside them.
func TestAlgorithmMetricsLabels(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	res := s.Submit([]SessionSpec{
		{N: 4, Family: "rooted", Roots: 1, Seed: 31},
		{N: 4, Family: "rooted", Roots: 1, Seed: 32, Algorithm: "approx"},
	})
	for i, r := range res {
		if r.Error != "" {
			t.Fatalf("spec %d: %s", i, r.Error)
		}
		if sess := waitDone(t, s, r.ID); sess.Status != "done" {
			t.Fatalf("spec %d: %s", i, sess.Error)
		}
	}
	var sb strings.Builder
	s.WriteMetrics(&sb)
	scrape := sb.String()
	for _, want := range []string{
		`ksetd_algorithm_sessions_total{algorithm="kset",status="completed"} 1`,
		`ksetd_algorithm_sessions_total{algorithm="approx",status="completed"} 1`,
		`ksetd_algorithm_rounds_total{algorithm="approx"}`,
		`ksetd_algorithm_decisions_total{algorithm="approx"} 1`, // converged to one vertex
		`ksetd_algorithm_decisions_total{algorithm="kset"} 1`,
		"ksetd_sessions_completed_total 2", // unlabeled aggregate still spans both families
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics scrape missing %q:\n%s", want, scrape)
		}
	}
}

// panicsInRound3 is a k-set process whose third transition panics; the
// registry's self-test only reaches round 1.
type panicsInRound3 struct {
	rounds.Algorithm
	rounds.Decider
}

func (p panicsInRound3) Transition(r int, recv []any) {
	if r == 3 {
		panic("lost itself in round 3")
	}
	p.Algorithm.Transition(r, recv)
}

// TestPanickingProcessFailsOnlyItsSession: a panic inside a session's
// process — on the worker's own goroutine when the runtime steps the
// processes inline (in-proc), re-raised from a pool worker when every
// process has its own (udp) — ends that session as failed, with the
// panic value as its error and the failed counters moved, and the worker
// goes on serving. It used to kill the whole program.
func TestPanickingProcessFailsOnlyItsSession(t *testing.T) {
	const family = "panics-in-round-3"
	bad := *algo.MustLookup(algo.KSet)
	bad.Name = family
	bad.NewFactory = func(run algo.Run) (func(int) rounds.Algorithm, error) {
		factory, err := algo.MustLookup(algo.KSet).NewFactory(run)
		if err != nil {
			return nil, err
		}
		return func(self int) rounds.Algorithm {
			p := factory(self)
			return panicsInRound3{p, p.(rounds.Decider)}
		}, nil
	}
	if err := algo.Register(&bad); err != nil {
		t.Fatal(err)
	}
	defer algo.Unregister(family)

	s := New(Config{Workers: 1})
	defer s.Close()
	for i, transport := range []string{"inproc", "udp"} {
		healthy := SessionSpec{N: 4, Family: "rooted", Roots: 1, Seed: 41, Transport: transport}
		faulty := healthy
		faulty.Algorithm = family
		want := []string{"done", "failed", "done"}
		for j, r := range s.Submit([]SessionSpec{healthy, faulty, healthy}) {
			if r.Error != "" {
				t.Fatalf("%s spec %d: %s", transport, j, r.Error)
			}
			sess := waitDone(t, s, r.ID)
			if sess.Status != want[j] {
				t.Errorf("%s session %d: status %q (%s), want %q", transport, j, sess.Status, sess.Error, want[j])
			}
			if want[j] == "failed" && sess.Error != "lost itself in round 3" {
				t.Errorf("%s: failed session's error is %q, want the panic value", transport, sess.Error)
			}
		}
		var sb strings.Builder
		s.WriteMetrics(&sb)
		for _, line := range []string{
			fmt.Sprintf("ksetd_sessions_failed_total %d", i+1),
			fmt.Sprintf("ksetd_sessions_completed_total %d", 2*(i+1)),
			fmt.Sprintf(`ksetd_algorithm_sessions_total{algorithm=%q,status="failed"} %d`, family, i+1),
		} {
			if !strings.Contains(sb.String(), line) {
				t.Errorf("%s: metrics scrape missing %q:\n%s", transport, line, sb.String())
			}
		}
	}
}
