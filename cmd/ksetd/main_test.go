package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read run's output while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(context.Background(), []string{"positional"}, &out); err == nil {
		t.Fatal("positional argument accepted")
	}
	// A value the service would silently replace by its default is
	// rejected before listening. The context is already canceled, so a
	// run that accepted the flag returns nil at once instead of serving.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, flag := range [][]string{
		{"-workers", "0"}, {"-queue", "0"}, {"-maxn", "0"}, {"-retain", "0"},
		{"-workers", "-3"}, {"-session-timeout", "-1s"},
	} {
		if err := run(canceled, append([]string{"-addr", "127.0.0.1:0"}, flag...), &out); err == nil {
			t.Errorf("%s %s accepted", flag[0], flag[1])
		}
	}
}

var listenLine = regexp.MustCompile(`ksetd listening on ([0-9.:]+)`)

// TestServeSubmitShutdown boots the real server on an ephemeral port,
// pushes a session through the HTTP API, and verifies graceful shutdown
// on context cancellation.
func TestServeSubmitShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out)
	}()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			addr = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(addr+"/v1/sessions", "application/json",
		strings.NewReader(`{"sessions":[{"n":5,"family":"single_source","seed":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var br struct {
		Results []struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		} `json:"results"`
	}
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || len(br.Results) != 1 || br.Results[0].Error != "" {
		t.Fatalf("submit: status %d, results %+v", resp.StatusCode, br.Results)
	}

	// Poll the session to done, then health.
	id := br.Results[0].ID
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := http.Get(addr + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var sess struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sess)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sess.Status == "done" {
			break
		}
		if sess.Status == "failed" {
			t.Fatalf("session failed: %s", sess.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %s", sess.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, err := http.Get(addr + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "graceful shutdown complete") {
		t.Fatalf("missing shutdown confirmation; output:\n%s", out.String())
	}
}
