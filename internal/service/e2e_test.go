package service

import (
	"bytes"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestE2EHundredConcurrentSessions is the in-process twin of the CI
// service smoke: 100 sessions submitted concurrently in batches through
// the HTTP API, polled to completion, every decision checked against
// the k-bound, and /metrics scraped for consistent counters.
func TestE2EHundredConcurrentSessions(t *testing.T) {
	s := New(Config{Workers: 8, Queue: 256})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const total, batches = 100, 10
	families := []string{"rooted", "single_source", "lowerbound", "partition_merge", "vertex_stable", "complete"}
	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	wg.Add(batches)
	for b := 0; b < batches; b++ {
		go func(b int) {
			defer wg.Done()
			var req BatchRequest
			for i := 0; i < total/batches; i++ {
				idx := b*(total/batches) + i
				req.Sessions = append(req.Sessions, SessionSpec{
					N:      4 + idx%8,
					Family: families[idx%len(families)],
					Seed:   int64(idx),
					Noisy:  idx % 5,
					Roots:  1 + idx%3,
				})
			}
			body, _ := json.Marshal(req)
			resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				raw, _ := io.ReadAll(resp.Body)
				t.Errorf("batch %d: status %d: %s", b, resp.StatusCode, raw)
				return
			}
			var br BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Error(err)
				return
			}
			if br.Accepted != total/batches {
				t.Errorf("batch %d: accepted %d of %d: %+v", b, br.Accepted, total/batches, br.Results)
			}
			mu.Lock()
			for _, r := range br.Results {
				if r.ID != "" {
					ids = append(ids, r.ID)
				}
			}
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(ids) != total {
		t.Fatalf("accepted %d sessions, want %d", len(ids), total)
	}

	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			if time.Now().After(deadline) {
				t.Fatalf("session %s not done before deadline", id)
			}
			resp, err := http.Get(srv.URL + "/v1/sessions/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var sess Session
			err = json.NewDecoder(resp.Body).Decode(&sess)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if sess.Status == "failed" {
				t.Fatalf("session %s failed: %s", id, sess.Error)
			}
			if sess.Status == "done" {
				if !sess.Result.KBound {
					t.Fatalf("session %s: %d distinct decisions exceed MinK %d",
						id, len(sess.Result.Distinct), sess.Result.MinK)
				}
				if !sess.Result.AllDecided {
					t.Fatalf("session %s: undecided processes", id)
				}
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	metrics := scrapeMetrics(t, srv.URL)
	if got := metrics["ksetd_sessions_completed_total"]; got < total {
		t.Fatalf("metrics report %d completed sessions, want >= %d", got, total)
	}
	if got := metrics["ksetd_sessions_submitted_total"]; got < total {
		t.Fatalf("metrics report %d submitted sessions, want >= %d", got, total)
	}
	if metrics["ksetd_rounds_total"] == 0 || metrics["ksetd_decisions_total"] == 0 {
		t.Fatalf("round/decision counters empty: %v", metrics)
	}
	if metrics["ksetd_kbound_violations_total"] != 0 {
		t.Fatalf("conservative-guard sessions produced k-bound violations: %v", metrics)
	}

	// Liveness endpoint sanity.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("healthz: %+v", h)
	}
}

var metricLine = regexp.MustCompile(`(?m)^(ksetd_[a-z_]+) (\d+)$`)

func scrapeMetrics(t *testing.T, base string) map[string]int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, m := range metricLine.FindAllStringSubmatch(string(raw), -1) {
		v, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatalf("metric %s: %v", m[1], err)
		}
		out[m[1]] = v
	}
	if len(out) == 0 {
		t.Fatalf("no ksetd_ metrics in scrape:\n%s", raw)
	}
	return out
}

func TestHTTPErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		body string
		code int
	}{
		{"{not json", http.StatusBadRequest},
		{`{"sessions":[]}`, http.StatusBadRequest},
		{`{"sessions":[{"n":0,"family":"rooted"}]}`, http.StatusTooManyRequests}, // all rejected
		// Out-of-range lengths are rejected positionally, before any
		// adversary is built from them (a negative prefix used to panic
		// on the handler's goroutine).
		{`{"sessions":[{"n":5,"family":"eventual","noisy":-1},{"n":5,"family":"rooted","noisy":1000000000},{"n":5,"family":"rooted","max_rounds":-1}]}`, http.StatusTooManyRequests},
	} {
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/sessions/s-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
	if _, err := http.Get(srv.URL + "/v1/sessions?status=done"); err != nil {
		t.Fatal(err)
	}
}
