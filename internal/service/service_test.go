package service

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kset/internal/graph"
	"kset/internal/rounds"
)

// waitDone polls until the session reaches a terminal state.
func waitDone(t *testing.T, s *Service, id string) Session {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		sess, ok := s.Get(id)
		if !ok {
			t.Fatalf("session %s vanished", id)
		}
		if sess.Status == "done" || sess.Status == "failed" {
			return sess
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %s not finished in time", id)
	return Session{}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	res := s.Submit([]SessionSpec{
		{N: 4, Family: "rooted", Seed: 1},
		{N: 1, Family: "lowerbound"}, // k defaults to n/2, which must not be 0
		{N: 16, Family: "rooted", Seed: 2, Transport: "tcp"},
		{N: 0, Family: "rooted"},
		{N: 4, Family: "no-such-family"},
		{N: 4, Family: "rooted", Proposals: []int64{1, 2}},
		{N: 4, Family: "rooted", Transport: "carrier-pigeon"},
		{N: 7, Family: "figure1"},
		{N: 4, Family: "rooted", Roots: 9},
		{N: 4, Family: "lowerbound", K: 17},
		{N: 129, Family: "rooted"},
		{N: 5, Family: "eventual", Noisy: -1},
		{N: 128, Family: "rooted", Noisy: 4*128 + 1},
		{N: 4, Family: "rooted", MaxRounds: -1},
		{N: 4, Family: "rooted", MaxRounds: 32*4 + 1},
		{N: 33, Family: "rooted", Transport: "tcp"},
	})
	const valid = 3
	for i, r := range res {
		switch {
		case i < valid && (r.Error != "" || r.ID == ""):
			t.Errorf("valid spec %d rejected: %+v", i, r)
		case i >= valid && r.Error == "":
			t.Errorf("invalid spec %d accepted: %+v", i, r)
		}
	}
}

func TestSessionLifecycleAndKBound(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	specs := []SessionSpec{
		{N: 6, Family: "single_source", Seed: 7},
		{N: 8, Family: "rooted", Roots: 3, Noisy: 4, Seed: 8},
		{N: 8, Family: "lowerbound", K: 3, Seed: 9},
		{N: 6, Family: "figure1"},
		{N: 6, Family: "partition_merge", Seed: 10},
		{N: 6, Family: "vertex_stable", Seed: 11},
		{N: 6, Family: "tinterval", Seed: 12},
		{N: 5, Family: "complete", Seed: 13},
		{N: 5, Family: "eventual", Noisy: 3, Seed: 14},
		{N: 4, Family: "single_source", Seed: 15, Transport: "tcp"},
		{N: 4, Family: "rooted", Roots: 2, Seed: 16, Transport: "udp"},
	}
	res := s.Submit(specs)
	for i, r := range res {
		if r.Error != "" {
			t.Fatalf("spec %d rejected: %s", i, r.Error)
		}
		sess := waitDone(t, s, r.ID)
		if sess.Status != "done" {
			t.Fatalf("spec %d (%s): status %s, error %s", i, specs[i].Family, sess.Status, sess.Error)
		}
		if !sess.Result.KBound {
			t.Errorf("spec %d (%s): %d distinct decisions exceed MinK %d",
				i, specs[i].Family, len(sess.Result.Distinct), sess.Result.MinK)
		}
		if !sess.Result.AllDecided {
			t.Errorf("spec %d (%s): not all processes decided", i, specs[i].Family)
		}
	}
	// single_source (MinK = 1) with the conservative guard must reach
	// consensus.
	first, _ := s.Get(res[0].ID)
	if len(first.Result.Distinct) != 1 {
		t.Errorf("single_source session decided %v, want consensus", first.Result.Distinct)
	}
}

// TestSessionAtMaxN pins that the service genuinely accepts and
// executes sessions at the default MaxN (128) — the ceiling is not
// decorative — on the in-process transport and over the full
// 128-socket UDP mesh. Rounds are capped via the spec: deciding at
// n=128 inherently takes ~n rounds of O(n^4) merge work (about a
// minute on one core), so the scale pin runs a fixed prefix and
// asserts clean execution and the k-bound instead of decision.
func TestSessionAtMaxN(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 sessions exceed the short-test budget")
	}
	s := New(Config{Workers: 2})
	defer s.Close()
	const capRounds = 10
	specs := []SessionSpec{
		{N: 128, Family: "rooted", Roots: 4, Noisy: 16, Seed: 2, MaxRounds: capRounds},
		{N: 128, Family: "rooted", Roots: 4, Seed: 3, MaxRounds: capRounds, Transport: "udp"},
	}
	for i, r := range s.Submit(specs) {
		if r.Error != "" {
			t.Fatalf("n=128 spec %d rejected: %s", i, r.Error)
		}
		sess := waitDone(t, s, r.ID)
		if sess.Status != "done" {
			t.Fatalf("n=128 spec %d (%s/%s): status %s, error %s",
				i, specs[i].Family, specs[i].Transport, sess.Status, sess.Error)
		}
		if sess.Result.Rounds != capRounds {
			t.Errorf("n=128 spec %d: ran %d rounds, want %d", i, sess.Result.Rounds, capRounds)
		}
		if !sess.Result.KBound {
			t.Errorf("n=128 spec %d: %d distinct decisions exceed MinK %d",
				i, len(sess.Result.Distinct), sess.Result.MinK)
		}
	}
}

// TestDeterministicReplay pins that a session is replayable from its
// spec: same spec, same decisions — across fresh service instances and
// across transports.
func TestDeterministicReplay(t *testing.T) {
	spec := SessionSpec{N: 8, Family: "rooted", Roots: 2, Noisy: 6, Seed: 42}
	var results []*SessionResult
	for i := 0; i < 2; i++ {
		s := New(Config{Workers: 2})
		id := s.Submit([]SessionSpec{spec})[0].ID
		sess := waitDone(t, s, id)
		if sess.Status != "done" {
			t.Fatalf("replay %d failed: %s", i, sess.Error)
		}
		results = append(results, sess.Result)
		s.Close()
	}
	s := New(Config{Workers: 2})
	defer s.Close()
	// "udp" rides along here deliberately: over a quiet loopback with the
	// service's generous round deadline the best-effort transport loses
	// nothing, so the realized run equals the scheduled run and even the
	// lossy transport must reproduce the decisions bit for bit.
	for _, kind := range []string{"tcp", "udp"} {
		alt := spec
		alt.Transport = kind
		sess := waitDone(t, s, s.Submit([]SessionSpec{alt})[0].ID)
		if sess.Status != "done" {
			t.Fatalf("%s replay failed: %s", kind, sess.Error)
		}
		results = append(results, sess.Result)
	}
	for i := 1; i < len(results); i++ {
		if fmt.Sprint(results[i].Decisions) != fmt.Sprint(results[0].Decisions) ||
			results[i].Rounds != results[0].Rounds {
			t.Fatalf("replay %d diverged: %+v vs %+v", i, results[i], results[0])
		}
	}
}

func TestBackpressure(t *testing.T) {
	// One worker parked on a slow-ish session, queue of 2: the 4th..nth
	// submissions must bounce with "queue full".
	s := New(Config{Workers: 1, Queue: 2})
	defer s.Close()
	specs := make([]SessionSpec, 8)
	for i := range specs {
		specs[i] = SessionSpec{N: 16, Family: "rooted", Roots: 4, Noisy: 24, Seed: int64(i)}
	}
	res := s.Submit(specs)
	full := 0
	for _, r := range res {
		if r.Error == "queue full" {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no submission was rejected by backpressure")
	}
	for _, r := range res {
		if r.ID == "" {
			continue
		}
		if sess := waitDone(t, s, r.ID); sess.Status != "done" {
			t.Fatalf("accepted session %s: %s", r.ID, sess.Error)
		}
	}
}

func TestRetentionEviction(t *testing.T) {
	s := New(Config{Workers: 2, Retain: 3})
	defer s.Close()
	var ids []string
	for i := 0; i < 6; i++ {
		r := s.Submit([]SessionSpec{{N: 4, Family: "complete", Seed: int64(i)}})[0]
		if r.Error != "" {
			t.Fatal(r.Error)
		}
		waitDone(t, s, r.ID)
		ids = append(ids, r.ID)
	}
	retained := 0
	for _, id := range ids {
		if _, ok := s.Get(id); ok {
			retained++
		}
	}
	if retained != 3 {
		t.Fatalf("retained %d finished sessions, want Retain = 3", retained)
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Fatal("oldest session survived eviction")
	}
}

func TestFaithfulGuardIsObservable(t *testing.T) {
	// The E10 witness under the published guard must violate the
	// k-bound (that is the point of the fire drill) and the service
	// must count it rather than hide it.
	s := New(Config{Workers: 1})
	defer s.Close()
	r := s.Submit([]SessionSpec{{
		N: 6, Family: "single_source", Seed: 3, FaithfulGuard: true,
	}})[0]
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	sess := waitDone(t, s, r.ID)
	if sess.Status != "done" {
		t.Fatal(sess.Error)
	}
	// Whether this particular run violates is seed-dependent; the
	// invariant is that the service reported KBound honestly.
	if sess.Result.KBound != (len(sess.Result.Distinct) <= sess.Result.MinK) {
		t.Fatal("KBound flag inconsistent with result")
	}
	var sb strings.Builder
	s.writeMetrics(&sb)
	if !strings.Contains(sb.String(), "ksetd_kbound_violations_total") {
		t.Fatal("metrics missing kbound violation counter")
	}
}

func TestCloseRejectsAndDrains(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	res := s.Submit([]SessionSpec{{N: 4, Family: "complete"}})
	if res[0].Error == "" {
		t.Fatal("closed service accepted a session")
	}
	s.Close() // idempotent
}

// countingAdversary counts the graphs a run reads from it.
type countingAdversary struct {
	rounds.Adversary
	graphs atomic.Int64
}

func (a *countingAdversary) Graph(r int) *graph.Digraph {
	a.graphs.Add(1)
	return a.Adversary.Graph(r)
}

// TestSessionRunsTheAdversaryValidationBuilt: a session's adversary is
// built once, by validate; execute runs that one — it used to build a
// second — and takes it off the session, so neither the registry nor a
// Get snapshot pins a schedule once the session has started.
func TestSessionRunsTheAdversaryValidationBuilt(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := SessionSpec{N: 4, Family: "rooted", Roots: 2, Noisy: 3, Seed: 7}
	adv, err := s.validate(&spec)
	if err != nil {
		t.Fatal(err)
	}
	handed := &countingAdversary{Adversary: adv}
	sess := &Session{ID: "s-handed", Status: "queued", Spec: spec, adv: handed}
	s.mu.Lock()
	s.sessions[sess.ID] = sess
	s.mu.Unlock()
	s.execute(sess)
	got, _ := s.Get(sess.ID)
	if got.Status != "done" {
		t.Fatalf("session %s: %s", got.Status, got.Error)
	}
	if handed.graphs.Load() == 0 {
		t.Error("the session never read the adversary it was handed: execute built its own")
	}
	if got.adv != nil {
		t.Error("a finished session still holds its adversary")
	}

	// The same through Submit: what validate returns is what is queued.
	r := s.Submit([]SessionSpec{spec})[0]
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	if done := waitDone(t, s, r.ID); done.adv != nil || !reflect.DeepEqual(done.Result, got.Result) {
		t.Errorf("submitted twin: adv %v, result %+v; want none and %+v", done.adv, done.Result, got.Result)
	}
}
