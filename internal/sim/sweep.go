package sim

import (
	"fmt"
	"sync"

	"kset/internal/adversary"
)

// defaultShardSize is the number of cells a worker claims at a time.
// Shards amortize channel traffic without hurting load balance; peak
// retained values are O(workers · shard size), independent of the total
// cell count.
const defaultShardSize = 16

// CellSeed derives the per-cell random seed of a sweep from its base
// seed, so that neighboring cells get statistically independent streams
// and cell seeds never depend on worker scheduling. It is
// adversary.MixSeed — the one splitmix64 mixer behind the DESIGN.md §5
// determinism scheme. The result is non-negative.
func CellSeed(base int64, cell int) int64 { return adversary.MixSeed(base, cell) }

// future is one shard on its way from a worker to the caller: the values
// of cells start, start+1, … up to the first that failed, and its error
// (wrapped with the cell index); written before done closes, read after.
type future[T any] struct {
	start int
	outs  []T
	err   error
	done  chan struct{}
}

// Sweep is the sweep engine (DESIGN.md §5), an ordered fan-in: it computes
// run(cell) for cell = 0..cells-1 on up to workers goroutines (<= 1:
// sequentially, on the caller) and hands each value to deliver on the
// calling goroutine, exactly once, in strictly ascending cell order for
// every worker count. run must be a pure function of cell — derive any
// randomness from CellSeed(baseSeed, cell), never from shared mutable
// state — so that what deliver keeps is byte-identical for workers = 1
// and 64. deliver should keep what it reads of a value, not the value
// (an experiment row keeps one number per trial), or the sweep holds
// O(cells) of them.
//
// The first error — from run or deliver — aborts the sweep and is
// returned wrapped with its cell index. Errors are deterministic like
// deliveries: deliver receives exactly the values of cells 0..f-1 where
// f is the LOWEST failing cell, and the returned error is cell f's — not
// whichever failure happened to finish first. Workers running when the
// error surfaces finish their current shard and are discarded.
func Sweep[T any](cells, workers int, run func(cell int) (T, error), deliver func(cell int, v T) error) error {
	return sweep(cells, workers, defaultShardSize, run, deliver)
}

// sweep is Sweep at a given shard size (the tests': small, to reorder more).
func sweep[T any](cells, workers, shard int, run func(int) (T, error), deliver func(int, T) error) error {
	if run == nil || deliver == nil || cells < 0 {
		return fmt.Errorf("sim: Sweep(%d cells) needs cells >= 0, run and deliver", cells)
	}
	wrap := func(cell int, err error) error { return fmt.Errorf("sim: cell %d: %w", cell, err) }
	if workers <= 1 || cells <= 1 {
		for cell := 0; cell < cells; cell++ {
			if v, err := run(cell); err != nil {
				return wrap(cell, err)
			} else if err := deliver(cell, v); err != nil {
				return wrap(cell, err)
			}
		}
		return nil
	}
	workers = min(workers, (cells+shard-1)/shard)

	// In-order delivery is queue order. The dispatcher queues every
	// shard's future twice, ascending: on inOrder for the caller, then on
	// work for whichever worker is free. inOrder's capacity is the
	// in-flight bound: a shard runs only once its future is queued there,
	// so at most workers+1 undelivered shards exist (the queue's and the
	// caller's) however skewed the shard latencies are; the lowest reached
	// work before any later one, so it is running or done — no deadlock.
	work := make(chan *future[T])
	inOrder := make(chan *future[T], workers)
	stop := make(chan struct{}) // closed when the caller returns
	var wg sync.WaitGroup
	defer wg.Wait() // the dispatcher closes work; workers finish their shard
	defer close(stop)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range work {
				for cell := f.start; cell < min(f.start+shard, cells) && f.err == nil; cell++ {
					if v, err := run(cell); err != nil {
						f.err = wrap(cell, err)
					} else {
						f.outs = append(f.outs, v)
					}
				}
				close(f.done)
			}
		}()
	}
	go func() {
		defer close(work)
		for start := 0; start < cells; start += shard {
			f := &future[T]{start: start, outs: make([]T, 0, shard), done: make(chan struct{})}
			select {
			case inOrder <- f:
				work <- f // never stuck: workers receive until work is closed
			case <-stop:
				return
			}
		}
	}()

	// Walking the futures in queue order meets the lowest failing cell
	// first, with everything below it delivered — as a sequential sweep.
	for start := 0; start < cells; start += shard {
		f := <-inOrder
		<-f.done
		for i, v := range f.outs {
			if err := deliver(f.start+i, v); err != nil {
				return wrap(f.start+i, err)
			}
		}
		if f.err != nil {
			return f.err
		}
	}
	return nil
}
