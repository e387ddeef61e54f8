package rounds

import "sync"

// Shards steps the n processes of a run in contiguous blocks, one block
// per worker, one phase at a time — the one worker pool both executors
// run on (RunSequential here, the live runtime in internal/runtime).
// Phase's caller is worker 0; every other worker is a goroutine handed
// each phase by one channel operation each way, so one worker means no
// goroutine and no channel operation, and no phase allocates. The
// hand-offs order the caller's writes between phases before the workers'
// reads, and the workers' writes before Phase's return.
type Shards struct {
	step   func(w, lo, hi, r int)
	shards []shard
	exited sync.WaitGroup
}

// shard is worker w's block [lo, hi) and its two hand-off channels.
type shard struct {
	lo, hi int
	start  chan int // the phase to step; closed to stop the worker
	done   chan any // per phase: the value the step panicked with, or nil
}

// NewShards splits n processes over `workers` contiguous blocks and
// starts workers 1 and up. step(w, lo, hi, r) runs phase r for block
// [lo, hi) on worker w. The caller must Stop the pool on every path.
func NewShards(n, workers int, step func(w, lo, hi, r int)) *Shards {
	p := &Shards{step: step, shards: make([]shard, workers)}
	for w := range p.shards {
		s := &p.shards[w]
		s.lo, s.hi = w*n/workers, (w+1)*n/workers
		if w > 0 {
			// One phase is outstanding at a time, so neither side blocks
			// on a hand-off the other has abandoned.
			s.start, s.done = make(chan int, 1), make(chan any, 1)
			p.exited.Add(1)
			go p.work(w)
		}
	}
	return p
}

// Phase steps every shard through phase r and returns when all have
// finished — so a step that can block on another shard must unblock the
// others before it gives up. A panic in the caller's own shard
// propagates as it is (Stop then waits for the others); one in another
// shard is re-raised here once every shard has finished, lowest block
// first — either way the value one worker would have panicked with.
func (p *Shards) Phase(r int) {
	for w := 1; w < len(p.shards); w++ {
		p.shards[w].start <- r
	}
	p.step(0, p.shards[0].lo, p.shards[0].hi, r)
	var failed any
	for w := 1; w < len(p.shards); w++ {
		if v := <-p.shards[w].done; v != nil && failed == nil {
			failed = v
		}
	}
	if failed != nil {
		panic(failed)
	}
}

// work is the body of workers 1 and up.
func (p *Shards) work(w int) {
	defer p.exited.Done()
	s := &p.shards[w]
	for r := range s.start {
		p.guarded(w, s, r)
	}
}

// guarded is step with the panic, if any, reported instead of raised.
func (p *Shards) guarded(w int, s *shard, r int) {
	defer s.report()
	p.step(w, s.lo, s.hi, r)
}

func (s *shard) report() { s.done <- recover() }

// Stop ends the workers and waits for them; a worker still inside a step
// finishes it first.
func (p *Shards) Stop() {
	for w := 1; w < len(p.shards); w++ {
		close(p.shards[w].start)
	}
	p.exited.Wait()
}
