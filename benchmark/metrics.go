package main

import (
	"fmt"
	"sync"
)

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// root of the repo lists the same names, units and directions; the test
// in this directory keeps the two equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, measured with tracing off. A "session" is one
// operation: a ksetd session on svc_*, one sim.Execute call elsewhere.
// Failed operations are not a metric here: they go out as the result's
// "attempted" and "failed" counts, and any failure makes "correct" false.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sessions_per_s", "1/s", "higher"},
	{"session_p50_ms", "ms", "lower"},
	{"rounds_per_s", "1/s", "higher"},
}

// perLayer are the rows of the traced ledger, named <module>.<metric>.
// A row that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"graph.merge_ns", "ns", "lower"},
	{"graph.purge_ns", "ns", "lower"},
	{"graph.prune_ns", "ns", "lower"},
	{"graph.scc_ns", "ns", "lower"},
	{"graph.approx_edges", "count", "lower"},
	{"core.send_ns_per_round", "ns", "lower"},
	{"core.transition_ns_per_round", "ns", "lower"},
	{"approx.transition_ns_per_round", "ns", "lower"},
	{"rounds.loop_self_ns_per_round", "ns", "lower"},
	{"wire.encode_ns_per_round", "ns", "lower"},
	{"wire.decode_ns_per_round", "ns", "lower"},
	{"wire.decodes_per_round", "count", "lower"},
	{"wire.bytes_per_round", "count", "lower"},
	{"transport.mesh_setup_ms", "ms", "lower"},
	{"transport.close_ms", "ms", "lower"},
	{"transport.broadcast_ns_per_round", "ns", "lower"},
	{"transport.gather_wait_ns_per_round", "ns", "lower"},
	{"transport.nil_deliveries_per_round", "count", "lower"},
	{"transport.deadline_misses_per_round", "count", "lower"},
	{"transport.lost_link_share", "%", "lower"},
	{"runtime.barrier_ns_per_round", "ns", "lower"},
	{"runtime.run_ms", "ms", "lower"},
	{"runtime.rounds_per_run", "count", "lower"},
	{"adversary.build_us", "us", "lower"},
	{"adversary.materialize_us", "us", "lower"},
	{"skeleton.observe_ns_per_round", "ns", "lower"},
	{"predicate.mink_us", "us", "lower"},
	{"sim.outcome_us", "us", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.get_us", "us", "lower"},
	{"service.polls_per_session", "count", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.json_us", "us", "lower"},
	{"service.rounds_per_session", "count", "lower"},
	{"service.shed_total", "count", "lower"},
	{"service.session_p95_ms", "ms", "lower"},
	{"service.session_p99_ms", "ms", "lower"},
	{"service.residual_ms", "ms", "lower"},
	{"go.alloc_kb_per_op", "count", "lower"},
	{"go.gc_pause_ms_per_s", "ms/s", "lower"},
	{"go.peak_heap_mb", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.unattributed_pct", "%", "lower"},
	{"bench.samples", "count", "higher"},
}

// ledgerRows are the span names whose self time an emitted per-layer
// metric accounts for. Wall time of the traced window that lies in no
// such span's self time is bench.unattributed_pct.
var ledgerRows = map[string]bool{
	"adversary.build":       true,
	"adversary.materialize": true,
	"sim.execute":           true, // self = sim.outcome_us
	"rounds.run_sequential": true, // self = rounds.loop_self_ns_per_round
	"runtime.run":           true, // self = runtime.run_ms less the processes and the close
	"runtime.processes":     true, // self = runtime.barrier_ns_per_round
	"core.send":             true,
	"core.transition":       true,
	"approx.send":           true,
	"approx.transition":     true,
	"wire.encode":           true,
	"wire.decode":           true,
	"transport.mesh_setup":  true,
	"transport.close":       true,
	"transport.broadcast":   true,
	"transport.gather":      true,
	"skeleton.observe":      true,
	"predicate.mink":        true,
	"service.json":          true,
	"bench.graph_probe":     true, // feeds graph.*
	"bench.check":           true, // the output check of one operation
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	mu       sync.Mutex // clients report concurrently
	failures []string   // why operations failed, for the human-readable log
}

// attempt counts n operations attempted.
func (r *result) attempt(n int) {
	r.mu.Lock()
	r.Attempted += n
	r.mu.Unlock()
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setMetrics fills Metrics from values for every metric of defs.
func (r *result) setMetrics(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}
