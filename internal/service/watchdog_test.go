package service

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The watchdog tests tell a wedged session from a healthy one by round
// count, not by how fast the machine is. A wedged session is approx at
// n = 256 on a 2^16-vertex path behind a 4n-round isolation prefix:
// approx decides in exactly its decide round and in no earlier one, and
// that round is (5 + 19 phases) x 255 rounds = 6120 rounds out — over
// 400 million message deliveries, far beyond any deadline used here —
// while one round of its tiny interval messages is cheap enough to be
// observed well inside the deadline even under the race detector. A
// healthy session is kset on the complete graph at n = 4, which decides
// within 3n rounds of a few microseconds each. watchdogDeadline sits
// between the two with orders of magnitude to spare on either side.
const (
	wedgedN          = 256
	wedgedDecideAt   = 6120
	healthyN         = 4
	watchdogDeadline = 2 * time.Second
)

func wedgedSpec() SessionSpec {
	return SessionSpec{N: wedgedN, Algorithm: "approx", Family: "eventual", Noisy: 4 * wedgedN, Vertices: 1 << 16}
}

func healthySpec() SessionSpec {
	return SessionSpec{N: healthyN, Family: "complete", Seed: 2}
}

// waitStatus polls until the session reaches the wanted status.
func waitStatus(t *testing.T, s *Service, id, want string) Session {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		sess, ok := s.Get(id)
		if !ok {
			t.Fatalf("session %s vanished", id)
		}
		if sess.Status == want {
			return sess
		}
		if sess.Status == "failed" && want != "failed" {
			t.Fatalf("session %s failed: %s", id, sess.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %s never reached status %q", id, want)
	return Session{}
}

// TestWatchdogCrashesWedgedSession pins the per-session watchdog: a
// session that cannot decide is declared crashed at the deadline, its
// partial outcome (rounds observed so far) is flushed into the registry,
// and the crash is counted in /metrics. The worker survives to run the
// next session.
func TestWatchdogCrashesWedgedSession(t *testing.T) {
	s := New(Config{Workers: 1, MaxN: wedgedN, SessionTimeout: watchdogDeadline})
	defer s.Close()

	r := s.Submit([]SessionSpec{wedgedSpec()})[0]
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	sess := waitStatus(t, s, r.ID, "crashed")
	if sess.Result == nil || !sess.Result.Partial {
		t.Fatalf("crashed session carries no partial result: %+v", sess)
	}
	if sess.Result.Rounds == 0 || sess.Result.Rounds >= wedgedDecideAt {
		t.Errorf("watchdog flushed %d observed rounds from a session executing %d", sess.Result.Rounds, wedgedDecideAt)
	}
	if !strings.Contains(sess.Error, "watchdog") {
		t.Errorf("crashed session error %q does not name the watchdog", sess.Error)
	}
	for i, d := range sess.Result.Decided {
		if d {
			t.Errorf("p%d decided before the decide round", i+1)
		}
	}

	// The worker is free again: a fast session completes normally and
	// the watchdog leaves it alone.
	r = s.Submit([]SessionSpec{healthySpec()})[0]
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	done := waitStatus(t, s, r.ID, "done")
	if done.Result.Partial {
		t.Error("completed session marked partial")
	}
	if !done.Result.AllDecided || done.Result.Rounds > 3*healthyN {
		t.Errorf("healthy session: all decided %v after %d rounds, want within %d",
			done.Result.AllDecided, done.Result.Rounds, 3*healthyN)
	}

	var sb strings.Builder
	s.writeMetrics(&sb)
	for _, want := range []string{
		"ksetd_sessions_crashed_total 1",
		"ksetd_peer_stalls_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDrainFlushesCrashedInFlight is the graceful-drain pin: Close
// arrives while a wedged session is in flight; the watchdog crashes it,
// the partial outcome is flushed (not lost to the shutdown), Close
// returns, and no watchdog or session goroutines leak.
func TestDrainFlushesCrashedInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 2, MaxN: wedgedN, SessionTimeout: watchdogDeadline})

	r := s.Submit([]SessionSpec{wedgedSpec()})[0]
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	waitStatus(t, s, r.ID, "running")
	s.Close() // blocks until the watchdog crashes the in-flight session

	sess, ok := s.Get(r.ID)
	if !ok {
		t.Fatal("session evicted during drain")
	}
	if sess.Status != "crashed" {
		t.Fatalf("in-flight session drained as %q, want crashed (error: %s)", sess.Status, sess.Error)
	}
	if sess.Result == nil || !sess.Result.Partial || sess.Result.Rounds == 0 {
		t.Fatalf("drain lost the partial outcome: %+v", sess.Result)
	}

	// Give exited goroutines a moment to unwind, then check for leaks.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines leaked across drain: %d before, %d after", before, got)
	}
}

// TestLoadSheddingRetryAfter pins the overload answer: with the worker
// parked on a wedged session and the bounded queue full, a fully-shed
// batch gets 503 plus a Retry-After hint, the shed submissions are
// counted, and none of them is built first.
func TestLoadSheddingRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1, MaxN: wedgedN, SessionTimeout: time.Second})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Fill the worker and the queue: two wedged sessions occupy both
	// (each for ~1s until its watchdog fires), so every further submit
	// sheds. Rejections in between just mean the worker had not yet
	// dequeued the first — retry until both are resident.
	accepted := 0
	for i := 0; i < 100 && accepted < 2; i++ {
		if s.Submit([]SessionSpec{wedgedSpec()})[0].Error == "" {
			accepted++
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if accepted < 2 {
		t.Fatal("could not park the worker and fill the queue")
	}

	// The worker stays parked for ~1s, so the shed state holds.
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"sessions":[{"n":4,"family":"complete"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed batch: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	// Shedding comes before validation, which builds the session's whole
	// schedule: a full queue turns away a spec it would have rejected, and
	// one that is expensive to build in a fraction of its build time.
	if r := s.Submit([]SessionSpec{{N: 4, Family: "no-such-family"}})[0]; r.Error != "queue full" {
		t.Errorf("full queue answered an unbuildable spec %q, want \"queue full\"", r.Error)
	}
	costly := SessionSpec{N: 128, Family: "rooted", Noisy: 512}
	start := time.Now()
	r := s.Submit([]SessionSpec{costly})[0]
	shedIn := time.Since(start)
	if r.Error != "queue full" {
		t.Errorf("full queue answered %+v, want \"queue full\"", r)
	}
	start = time.Now()
	if _, err := s.validate(&costly); err != nil {
		t.Fatal(err)
	}
	if build := time.Since(start); shedIn > build/4 {
		t.Errorf("shedding a spec took %v; building it takes %v", shedIn, build)
	}
	var sb strings.Builder
	s.writeMetrics(&sb)
	if !strings.Contains(sb.String(), "ksetd_sessions_shed_total") {
		t.Error("metrics missing shed counter")
	}
}
