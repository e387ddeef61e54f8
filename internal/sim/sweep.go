package sim

import (
	"fmt"
	"sync"

	"kset/internal/adversary"
)

// This file is the sharded streaming sweep engine (DESIGN.md §5):
// StreamSweep fans cells out to a worker pool in shards and delivers each
// outcome to the caller exactly once, in cell order, so incremental
// aggregators (stats.Running, stats.Stream) can consume and discard it
// and no sweep holds O(trials) outcomes. Determinism contract: OnOutcome
// is invoked in strictly ascending cell order for every worker count, and
// Spec must be a pure function of its cell index (derive all randomness
// from CellSeed), so a streamed table is byte-identical for Workers = 1
// and Workers = 64.

// defaultShardSize is the number of cells a worker claims at a time.
// Shards amortize channel traffic without hurting load balance; peak
// retained outcomes are O(Workers · shard size), independent of the total
// cell count.
const defaultShardSize = 16

// StreamConfig describes a streaming sweep.
type StreamConfig struct {
	// Cells is the number of simulations; required, >= 0.
	Cells int
	// Spec builds the cell-th simulation; required. It is called from
	// worker goroutines and must be a pure function of cell: derive any
	// randomness from CellSeed(baseSeed, cell), never from shared
	// mutable state, or the sweep loses its determinism guarantee.
	Spec func(cell int) (Spec, error)
	// OnOutcome consumes the cell-th outcome; required. It is called on
	// the StreamSweep goroutine in strictly ascending cell order, and
	// the outcome must not be retained after the call returns (the
	// engine releases its reference; keeping all of them reintroduces
	// the memory ceiling streaming exists to remove). A non-nil error
	// aborts the sweep.
	OnOutcome func(cell int, out *Outcome) error
	// Workers bounds parallelism; <= 1 runs sequentially on the calling
	// goroutine.
	Workers int
	// shardSize overrides defaultShardSize when positive; the engine's
	// tests use small shards to maximize reordering.
	shardSize int
}

// CellSeed derives the per-cell random seed of a sweep from its base
// seed, so that neighboring cells get statistically independent streams
// and cell seeds never depend on worker scheduling. It is
// adversary.MixSeed — the one splitmix64 mixer behind the DESIGN.md §5
// determinism scheme. The result is non-negative.
func CellSeed(base int64, cell int) int64 { return adversary.MixSeed(base, cell) }

// shardResult carries one executed shard from a worker to the collector.
// On error, outs holds the cells completed before the failure and err is
// already wrapped with the failing cell index.
type shardResult struct {
	start int
	outs  []*Outcome
	err   error
}

// StreamSweep runs a streaming sweep. The first error — from Spec,
// Execute, or OnOutcome — aborts the sweep and is returned wrapped with
// its cell index. Errors are deterministic like deliveries: for every
// worker count, OnOutcome receives exactly the outcomes of cells
// 0..f-1 (in order) where f is the LOWEST failing cell, and the
// returned error is cell f's — not whichever failure happened to finish
// first. Workers already running when the error surfaces finish their
// current shard and are discarded.
func StreamSweep(cfg StreamConfig) error {
	if cfg.Spec == nil {
		return fmt.Errorf("sim: StreamConfig.Spec is nil")
	}
	if cfg.OnOutcome == nil {
		return fmt.Errorf("sim: StreamConfig.OnOutcome is nil")
	}
	if cfg.Cells < 0 {
		return fmt.Errorf("sim: StreamConfig.Cells = %d", cfg.Cells)
	}
	shard := cfg.shardSize
	if shard <= 0 {
		shard = defaultShardSize
	}

	runCell := func(cell int) (*Outcome, error) {
		spec, err := cfg.Spec(cell)
		if err != nil {
			return nil, fmt.Errorf("sim: cell %d: %w", cell, err)
		}
		out, err := Execute(spec)
		if err != nil {
			return nil, fmt.Errorf("sim: cell %d: %w", cell, err)
		}
		return out, nil
	}
	deliver := func(cell int, out *Outcome) error {
		if err := cfg.OnOutcome(cell, out); err != nil {
			return fmt.Errorf("sim: cell %d: %w", cell, err)
		}
		return nil
	}

	if cfg.Workers <= 1 || cfg.Cells <= 1 {
		for cell := 0; cell < cfg.Cells; cell++ {
			out, err := runCell(cell)
			if err != nil {
				return err
			}
			if err := deliver(cell, out); err != nil {
				return err
			}
		}
		return nil
	}

	numShards := (cfg.Cells + shard - 1) / shard
	workers := cfg.Workers
	if workers > numShards {
		workers = numShards
	}

	work := make(chan int) // shard starts
	results := make(chan shardResult, workers)
	stop := make(chan struct{}) // closed on first failure to halt dispatch
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	// tokens bounds the shards in flight (dispatched but not yet
	// delivered): the dispatcher acquires one per shard, the collector
	// releases it after delivering the shard. Shards are dispatched in
	// ascending order, so the lowest undelivered shard always owns a
	// token and is either being computed or already deliverable — no
	// deadlock — while the reorder buffer stays bounded at
	// O(workers · shard) outcomes no matter how skewed the shard
	// latencies are.
	tokens := make(chan struct{}, workers+1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := range work {
				res := shardResult{start: start}
				end := start + shard
				if end > cfg.Cells {
					end = cfg.Cells
				}
				res.outs = make([]*Outcome, 0, end-start)
				for cell := start; cell < end; cell++ {
					out, err := runCell(cell)
					if err != nil {
						res.err = err
						halt()
						break
					}
					res.outs = append(res.outs, out)
				}
				results <- res
			}
		}()
	}

	// Dispatcher: feed shard starts until done or halted, throttled by
	// the in-flight token bucket.
	go func() {
		defer close(work)
		for s := 0; s < numShards; s++ {
			select {
			case tokens <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case work <- s * shard:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: reorder shards and deliver outcomes in strictly
	// ascending cell order. The token bucket keeps at most workers+1
	// undelivered shards alive, so the reorder buffer is bounded
	// regardless of Cells.
	//
	// Error determinism: an arriving shard error only halts DISPATCH of
	// new shards; delivery continues in cell order until the erroring
	// shard itself is reached. Shards below it were dispatched earlier
	// (dispatch is ascending), so their outcomes always arrive and are
	// delivered first — for every worker count the caller sees exactly
	// the outcomes below the lowest failing cell, then that cell's
	// error, matching what a sequential sweep would do.
	pending := make(map[int]shardResult, workers)
	next := 0 // next cell to deliver
	var firstErr error
	done := false
	for res := range results {
		if res.err != nil {
			halt() // stop dispatching; already-dispatched shards still arrive
		}
		pending[res.start] = res
		for !done {
			sr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			for i, out := range sr.outs {
				if err := deliver(next, out); err != nil {
					firstErr = err
					halt()
					done = true
					break
				}
				sr.outs[i] = nil // release: streaming retains nothing
				next++
			}
			<-tokens // shard consumed: let the dispatcher refill
			if !done && sr.err != nil {
				// The in-order walk reached the erroring shard: its
				// completed cells are delivered, its failing cell's
				// error is the sweep's verdict.
				firstErr = sr.err
				done = true
			}
			if next >= cfg.Cells {
				done = true
			}
		}
		// Keep draining results so workers never block on send.
	}
	return firstErr
}
