package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit drives the HTTP surface's one write path, POST /v1/sessions,
// with arbitrary bodies: whatever arrives, the handler answers without a
// panic with one of its four documented status codes, a batch it read
// gets a positional answer, and a session it accepted — validation said
// the spec is runnable — reaches a terminal status, "done" if it ran in
// memory. Seeds live in testdata/fuzz/FuzzSubmit: every numeric field
// negative and MaxInt64, a mixed kset/approx batch, MaxBatch + 1 specs,
// and the submission holes earlier PRs closed (the noisy and max_rounds
// caps, lowerbound's k default at n = 1). MaxN = 16 keeps an accepted
// session to milliseconds.
func FuzzSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 2, MaxN: 16})
		defer s.Close()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))

		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusAccepted, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d, want 202, 400, 429 or 503", rec.Code)
		}
		var req BatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("status %d for a body that does not decode: %v", rec.Code, err)
		}
		var resp BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d with an unreadable answer: %v", rec.Code, err)
		}
		if len(resp.Results) != len(req.Sessions) {
			t.Fatalf("%d results for %d sessions", len(resp.Results), len(req.Sessions))
		}
		accepted := 0
		for i, r := range resp.Results {
			if (r.ID == "") == (r.Error == "") {
				t.Fatalf("results[%d] = %+v: want exactly one of id and error", i, r)
			}
			if r.ID == "" {
				continue
			}
			accepted++
			// Sockets can fail for the machine's reasons; in memory, a
			// session that fails is a spec validation should have refused.
			sess := waitDone(t, s, r.ID)
			if sess.Status == "failed" && (sess.Spec.Transport == "" || sess.Spec.Transport == "inproc") {
				t.Fatalf("validation accepted %+v, which then failed: %s", sess.Spec, sess.Error)
			}
		}
		if resp.Accepted != accepted || resp.Rejected != len(resp.Results)-accepted || (accepted > 0) != (rec.Code == http.StatusAccepted) {
			t.Fatalf("status %d, accepted %d, rejected %d for %d ids among %d results",
				rec.Code, resp.Accepted, resp.Rejected, accepted, len(resp.Results))
		}
	})
}
