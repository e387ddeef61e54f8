package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/algo"
)

// metrics are the service's atomically-updated counters, rendered in
// the Prometheus text exposition format by writeMetrics. Hand-rolled on
// purpose: the repo carries no external dependencies, and counters +
// gauges in text format are all a scraper needs.
//
// The unlabeled ksetd_* names are load-bearing: ksetload and the e2e
// harnesses parse them, so they keep their exact spelling and
// aggregate across every algorithm family. The per-family breakdown is
// additive, under labeled ksetd_algorithm_* names.
type metrics struct {
	submitted        atomic.Int64
	rejected         atomic.Int64
	shed             atomic.Int64
	completed        atomic.Int64
	failed           atomic.Int64
	crashed          atomic.Int64
	running          atomic.Int64
	roundsTotal      atomic.Int64
	decisionsTotal   atomic.Int64
	kboundViolations atomic.Int64

	algoMu     sync.Mutex
	algoBucket map[string]*algoMetrics
}

// algoMetrics is one algorithm family's labeled counter set.
type algoMetrics struct {
	completed atomic.Int64
	failed    atomic.Int64
	crashed   atomic.Int64
	rounds    atomic.Int64
	decisions atomic.Int64
}

// algoFamily returns (creating on first use) the labeled counters of
// one algorithm family.
func (m *metrics) algoFamily(name string) *algoMetrics {
	if name == "" {
		name = algo.Default
	}
	m.algoMu.Lock()
	defer m.algoMu.Unlock()
	if m.algoBucket == nil {
		m.algoBucket = make(map[string]*algoMetrics)
	}
	am := m.algoBucket[name]
	if am == nil {
		am = &algoMetrics{}
		m.algoBucket[name] = am
	}
	return am
}

// algoFamilies snapshots the labeled counter map in sorted name order.
func (m *metrics) algoFamilies() ([]string, map[string]*algoMetrics) {
	m.algoMu.Lock()
	defer m.algoMu.Unlock()
	names := make([]string, 0, len(m.algoBucket))
	snap := make(map[string]*algoMetrics, len(m.algoBucket))
	for name, am := range m.algoBucket {
		names = append(names, name)
		snap[name] = am
	}
	sort.Strings(names)
	return names, snap
}

// writeMetrics renders the /metrics payload.
func (s *Service) writeMetrics(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("ksetd_sessions_submitted_total", "Sessions submitted through the batch API.", s.met.submitted.Load())
	counter("ksetd_sessions_rejected_total", "Submissions rejected (validation or backpressure).", s.met.rejected.Load())
	counter("ksetd_sessions_shed_total", "Submissions turned away by load shedding (bounded queue full).", s.met.shed.Load())
	counter("ksetd_sessions_completed_total", "Sessions finished successfully.", s.met.completed.Load())
	counter("ksetd_sessions_failed_total", "Sessions that ended in an execution error.", s.met.failed.Load())
	counter("ksetd_sessions_crashed_total", "Sessions the watchdog declared crashed (partial results flushed).", s.met.crashed.Load())
	counter("ksetd_peer_stalls_total", "Senders a session transport's deadline-closed rounds gave up on, one per (receiving process, missing sender, round).", s.stall.Stalls.Load())
	counter("ksetd_rounds_total", "Algorithm rounds executed across all sessions.", s.met.roundsTotal.Load())
	counter("ksetd_decisions_total", "Distinct decision values across all sessions.", s.met.decisionsTotal.Load())
	counter("ksetd_kbound_violations_total", "Sessions whose decisions exceeded the MinK bound (possible only with faithful_guard).", s.met.kboundViolations.Load())
	gauge("ksetd_sessions_running", "Sessions currently executing.", s.met.running.Load())
	gauge("ksetd_queue_depth", "Sessions accepted and waiting for a worker.", int64(len(s.queue)))
	gauge("ksetd_workers", "Size of the session worker pool.", int64(s.cfg.Workers))
	s.mu.Lock()
	retained := len(s.sessions)
	s.mu.Unlock()
	gauge("ksetd_sessions_retained", "Sessions held in the registry.", int64(retained))
	gauge("ksetd_uptime_seconds", "Seconds since the service started.", int64(time.Since(s.start).Seconds()))

	names, fams := s.met.algoFamilies()
	if len(names) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP ksetd_algorithm_sessions_total Finished sessions by algorithm family and terminal status.\n# TYPE ksetd_algorithm_sessions_total counter\n")
	for _, name := range names {
		am := fams[name]
		fmt.Fprintf(w, "ksetd_algorithm_sessions_total{algorithm=%q,status=\"completed\"} %d\n", name, am.completed.Load())
		fmt.Fprintf(w, "ksetd_algorithm_sessions_total{algorithm=%q,status=\"failed\"} %d\n", name, am.failed.Load())
		fmt.Fprintf(w, "ksetd_algorithm_sessions_total{algorithm=%q,status=\"crashed\"} %d\n", name, am.crashed.Load())
	}
	fmt.Fprintf(w, "# HELP ksetd_algorithm_rounds_total Algorithm rounds executed, by algorithm family.\n# TYPE ksetd_algorithm_rounds_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "ksetd_algorithm_rounds_total{algorithm=%q} %d\n", name, fams[name].rounds.Load())
	}
	fmt.Fprintf(w, "# HELP ksetd_algorithm_decisions_total Distinct decision values, by algorithm family.\n# TYPE ksetd_algorithm_decisions_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "ksetd_algorithm_decisions_total{algorithm=%q} %d\n", name, fams[name].decisions.Load())
	}
}
