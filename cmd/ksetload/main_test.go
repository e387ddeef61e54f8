package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kset/internal/service"
)

func TestRunRejectsBadArgs(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"positional"},
		{"-mode", "no-such-mode"},
		{"-mode", "runtime", "-transport", "avian"},
		{"-mode", "runtime", "-n", "0"},
		{"-mode", "runtime", "-transport", "tcp", "-nodes", "-1"},
		{"-mode", "runtime", "-transport", "udp", "-loss", "-0.5"},
		{"-mode", "runtime", "-transport", "udp", "-loss", "NaN"},
		{"-mode", "runtime", "-transport", "udp", "-loss", "2"},
		{"-mode", "service", "-sessions", "0"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRuntimeModeMeasures(t *testing.T) {
	for _, tr := range []string{"sim", "inproc", "tcp"} {
		var out bytes.Buffer
		err := run([]string{"-mode", "runtime", "-transport", tr,
			"-n", "4", "-rounds", "20", "-trials", "1", "-json"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		var sum runtimeSummary
		if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
			t.Fatalf("%s: bad JSON %q: %v", tr, out.String(), err)
		}
		if sum.Transport != tr || sum.RoundsPerSec <= 0 {
			t.Fatalf("%s: summary %+v", tr, sum)
		}
	}
}

// TestServiceModeSmoke drives the full service-mode flow against an
// in-process ksetd core — the same path the CI gauntlet exercises
// against the real binary.
func TestServiceModeSmoke(t *testing.T) {
	svc := service.New(service.Config{Workers: 4, Queue: 128})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var out bytes.Buffer
	err := run([]string{"-mode", "service", "-addr", srv.URL,
		"-sessions", "30", "-batch", "6", "-clients", "3", "-seed", "5"}, &out)
	if err != nil {
		t.Fatalf("service smoke: %v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "service smoke PASS") {
		t.Fatalf("missing PASS line: %s", out.String())
	}
}

func TestServiceModeReportsUnhealthy(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "service", "-addr", "http://127.0.0.1:1",
		"-sessions", "1", "-wait", "200ms"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not healthy") {
		t.Fatalf("unreachable service: err = %v", err)
	}
}

// TestServiceModeFailsFastOnCrashedSession: a session the watchdog
// declared crashed is terminal, so the run reports its error at once
// instead of polling it until -timeout.
func TestServiceModeFailsFastOnCrashedSession(t *testing.T) {
	const watchdog = "watchdog: session exceeded 2s deadline"
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.BatchResponse{Results: []service.SubmitResult{{ID: "s1"}}, Accepted: 1})
	})
	mux.HandleFunc("GET /v1/sessions/s1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Session{ID: "s1", Status: "crashed", Error: watchdog})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	start := time.Now()
	err := run([]string{"-mode", "service", "-addr", srv.URL, "-sessions", "1", "-timeout", "5s"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "crashed: "+watchdog) {
		t.Fatalf("err = %v, want the session's watchdog error", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("crashed session reported after %v, want well inside the 5s timeout", d)
	}
}

// TestChaosRowTakesMedianOfPerTrialRates: the rate is each trial's own
// rounds over its own wall time, then the median; seconds is the median
// wall time and rounds the truncated mean.
func TestChaosRowTakesMedianOfPerTrialRates(t *testing.T) {
	row := newChaosRow(2, []chaosTrial{
		{rounds: 10, seconds: 0.001, lost: 1}, // 10000 rounds/sec
		{rounds: 40, seconds: 0.002, lost: 0}, // 20000
		{rounds: 16, seconds: 0.004, lost: 2}, // 4000
	})
	want := chaosRow{Crashes: 2, Rounds: 22, Seconds: 0.002, RoundsPerSec: 10000, LostLinks: 3}
	if row != want {
		t.Fatalf("row = %+v, want %+v", row, want)
	}
	even := newChaosRow(0, []chaosTrial{{rounds: 10, seconds: 0.001}, {rounds: 30, seconds: 0.001}})
	if even.RoundsPerSec != 20000 || even.Rounds != 20 || even.Seconds != 0.001 {
		t.Fatalf("even row = %+v, want the two rates' midpoint 20000", even)
	}
}
