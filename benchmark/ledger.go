package main

import (
	"fmt"
	"io"
	goruntime "runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// layerTotals are the counts the traced operations of one run add up
// to, next to the recorder's spans.
type layerTotals struct {
	ops                      int
	rounds                   int64 // rounds executed by traced operations
	ksetRounds, approxRounds int64
	bytes, lost, scheduled   int64
	deadlineClosed           int64
	merge, purge, prune, scc calls
	probeEdges, probeSamples int64
}

// absorb folds one finished traced operation in.
func (lt *layerTotals) absorb(ot *opTrace) {
	lt.ops++
	lt.rounds += int64(ot.rounds)
	if ot.family == "approx" {
		lt.approxRounds += int64(ot.rounds)
	} else {
		lt.ksetRounds += int64(ot.rounds)
	}
	lt.bytes += ot.bytes.Load()
	for _, p := range ot.procs {
		lt.lost += p.lost
		lt.scheduled += p.scheduled
		lt.deadlineClosed += p.deadlineClosed
	}
	if gp := ot.probe; gp != nil {
		lt.merge.merge(gp.merge)
		lt.purge.merge(gp.purge)
		lt.prune.merge(gp.prune)
		lt.scc.merge(gp.scc)
		lt.probeEdges += gp.edges
		lt.probeSamples += gp.samples
	}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues computes the ledger from the recorder's roll-up and
// the totals. window is the wall time, in ns, of the traced window the
// spans lie in. extra carries the rows measured outside the recorder
// (service.*, go.*, overhead and sample count).
func perLayerValues(rows map[string]*row, lt layerTotals, window float64, extra map[string]float64) map[string]float64 {
	get := func(name string) *row {
		if r := rows[name]; r != nil {
			return r
		}
		return &row{}
	}
	rounds := float64(lt.rounds)
	perRound := func(name string) float64 { return div(get(name).Busy, rounds) }
	mean := func(name string, unit float64) float64 {
		r := get(name)
		return div(r.Busy, float64(r.Spans)) / unit
	}
	perCall := func(c calls) float64 { return div(float64(c.ns), float64(c.n)) }

	v := map[string]float64{
		"graph.merge_ns":     perCall(lt.merge),
		"graph.purge_ns":     perCall(lt.purge),
		"graph.prune_ns":     perCall(lt.prune),
		"graph.scc_ns":       perCall(lt.scc),
		"graph.approx_edges": div(float64(lt.probeEdges), float64(lt.probeSamples)),

		"core.send_ns_per_round":         div(get("core.send").Busy, float64(lt.ksetRounds)),
		"core.transition_ns_per_round":   div(get("core.transition").Busy, float64(lt.ksetRounds)),
		"approx.transition_ns_per_round": div(get("approx.transition").Busy, float64(lt.approxRounds)),
		"rounds.loop_self_ns_per_round":  div(get("rounds.run_sequential").SelfBusy, rounds),

		"wire.encode_ns_per_round": perRound("wire.encode"),
		"wire.decode_ns_per_round": perRound("wire.decode"),
		"wire.decodes_per_round":   div(float64(get("wire.decode").Count), rounds),
		"wire.bytes_per_round":     div(float64(lt.bytes), rounds),

		"transport.mesh_setup_ms":             mean("transport.mesh_setup", 1e6),
		"transport.close_ms":                  mean("transport.close", 1e6),
		"transport.broadcast_ns_per_round":    perRound("transport.broadcast"),
		"transport.gather_wait_ns_per_round":  perRound("transport.gather"),
		"transport.nil_deliveries_per_round":  div(float64(lt.lost), rounds),
		"transport.deadline_misses_per_round": div(float64(lt.deadlineClosed), rounds),
		"transport.lost_link_share":           100 * div(float64(lt.lost), float64(lt.scheduled)),

		"runtime.barrier_ns_per_round": div(get("runtime.processes").SelfBusy, rounds),
		"runtime.run_ms":               mean("runtime.run", 1e6),
		"runtime.rounds_per_run":       div(rounds, float64(lt.ops)),

		"adversary.build_us":            mean("adversary.build", 1e3),
		"adversary.materialize_us":      mean("adversary.materialize", 1e3),
		"skeleton.observe_ns_per_round": div(get("skeleton.observe").Busy, float64(get("skeleton.observe").Count)),
		"predicate.mink_us":             mean("predicate.mink", 1e3),
		"sim.outcome_us":                div(get("sim.execute").Self, float64(get("sim.execute").Spans)) / 1e3,
		"service.json_us":               mean("service.json", 1e3),
	}
	attributed := 0.0
	for name, r := range rows {
		if ledgerRows[name] {
			attributed += r.Self
		}
	}
	v["bench.unattributed_pct"] = 100 * div(window-attributed, window)
	for name, x := range extra {
		v[name] = x
	}
	return v
}

// printLedger writes the roll-up as a table: every span name with its
// self time in wall-clock terms and its share of the traced window.
func printLedger(w io.Writer, rows map[string]*row, window float64) {
	fmt.Fprintf(w, "  %-24s %10s %12s %12s %7s\n", "span", "calls", "busy_ms", "self_ms", "share")
	for _, r := range sortedRows(rows) {
		fmt.Fprintf(w, "  %-24s %10d %12.3f %12.3f %6.1f%%\n",
			r.Name, r.Count, r.Wall/1e6, r.Self/1e6, 100*div(r.Self, window))
	}
}

// memWindow measures the Go runtime over a window: bytes allocated and
// GC pause from runtime.MemStats deltas, and the peak of live heap
// bytes, sampled from runtime/metrics without stopping the world.
type memWindow struct {
	before goruntime.MemStats
	start  time.Time
	stop   chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startMemWindow() *memWindow {
	m := &memWindow{stop: make(chan struct{}), start: time.Now()}
	goruntime.ReadMemStats(&m.before)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				m.peak = max(m.peak, sample[0].Value.Uint64())
			}
			select {
			case <-tick.C:
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

// finish stops the sampler and adds the go.* rows for ops operations.
func (m *memWindow) finish(ops int, into map[string]float64) {
	close(m.stop)
	m.wg.Wait()
	wall := time.Since(m.start).Seconds()
	var after goruntime.MemStats
	goruntime.ReadMemStats(&after)
	into["go.alloc_kb_per_op"] = div(float64(after.TotalAlloc-m.before.TotalAlloc)/1024, float64(ops))
	into["go.gc_pause_ms_per_s"] = div(float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6, wall)
	into["go.peak_heap_mb"] = float64(m.peak) / (1 << 20)
}
