package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"kset/internal/algo"
)

// BatchRequest is the body of POST /v1/sessions.
type BatchRequest struct {
	Sessions []SessionSpec `json:"sessions"`
}

// BatchResponse answers a batch submission positionally.
type BatchResponse struct {
	Results []SubmitResult `json:"results"`
	// Accepted counts entries that were enqueued; Rejected the rest.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// health is the /healthz payload.
type health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Running       int64   `json:"sessions_running"`
	QueueDepth    int     `json:"queue_depth"`
}

// maxBatch bounds one submission request; bigger batches get a 400
// (clients should split, the queue bound applies regardless).
const maxBatch = 1024

// retryAfter is the backoff hint a load-shed submission carries in its
// Retry-After header: the queue is bounded and drains at session
// granularity, so a short fixed hint beats an estimate.
const retryAfter = 2 * time.Second

// Handler returns the service's HTTP API:
//
//	POST /v1/sessions          batch submission (BatchRequest -> BatchResponse)
//	GET  /v1/sessions/{id}     one session snapshot
//	GET  /v1/sessions?status=  session list (bounded)
//	GET  /healthz              liveness + queue depth
//	GET  /metrics              Prometheus text format
//
// Status codes: 202 when at least one session was accepted, 503 +
// Retry-After when the whole batch was load-shed (queue full or
// draining), 429 when it was rejected outright by validation, 400 for
// malformed requests (a body that is not exactly one JSON value, or that
// names a field a session spec does not have), 404 for unknown sessions.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleSubmit)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad request body: trailing data after the JSON value")
		return
	}
	if len(req.Sessions) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Sessions) > maxBatch {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds MaxBatch %d", len(req.Sessions), maxBatch))
		return
	}
	// An unknown algorithm name is a malformed request, not a rejected
	// session: answer 400 before submitting anything, with the
	// valid-name list so the client can fix its spelling.
	for i, spec := range req.Sessions {
		if _, err := algo.Lookup(spec.Algorithm); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error":            fmt.Sprintf("sessions[%d]: unknown algorithm %q", i, spec.Algorithm),
				"valid_algorithms": algo.Names(),
			})
			return
		}
	}
	resp := BatchResponse{Results: s.Submit(req.Sessions)}
	shed := false
	for _, res := range resp.Results {
		switch res.Error {
		case "":
			resp.Accepted++
			continue
		case "queue full", "service closed":
			shed = true
		}
		resp.Rejected++
	}
	code := http.StatusAccepted
	if resp.Accepted == 0 {
		// The whole batch bounced. Load shedding (bounded queue full, or
		// the service is draining) is the overloaded-server case: 503
		// with a Retry-After so well-behaved clients back off and come
		// back; a batch rejected purely by validation stays 429.
		if shed {
			w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
			code = http.StatusServiceUnavailable
		} else {
			code = http.StatusTooManyRequests
		}
	}
	writeJSON(w, code, resp)
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, sess)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions": s.list(r.URL.Query().Get("status"), 100),
	})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Running:       s.met.running.Load(),
		QueueDepth:    len(s.queue),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
