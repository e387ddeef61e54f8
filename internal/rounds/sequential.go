package rounds

import (
	"runtime"
	"sync"

	"kset/internal/graph"
)

// shardMinN is the smallest n at which RunSequential shards a round's
// transitions over the idle cores. Measured on the 2-core sandbox
// (ROADMAP gap (c) records the table): two workers win from n ≈ 64 on
// dense graphs and from n ≈ 100 on the sparse hub shape; below that the
// two channel hand-offs per round cost more than the second core saves.
const shardMinN = 128

// RunSequential executes a run in lockstep: collect all round-r messages,
// deliver along the round-r graph, apply all transitions, notify the
// observer, repeat. Send, the adversary, CheckGraph, the observer and
// StopWhen run on the calling goroutine, one round at a time, so a run is
// fully deterministic. Rounds are communication-closed — a transition
// reads only the round's messages and writes only its own process — so
// from n = shardMinN up the deliver-and-Transition phase (and Init) runs
// on min(GOMAXPROCS, n) workers over contiguous blocks of processes, the
// caller being worker 0; every worker has stopped when RunSequential
// returns or panics, and a panic in a process is re-raised on the caller
// with its original value. Below shardMinN, or with GOMAXPROCS = 1, no
// goroutine is started. The result does not depend on the worker count.
func RunSequential(cfg Config) (*Result, error) {
	n, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	workers := 1
	if n >= shardMinN {
		workers = min(runtime.GOMAXPROCS(0), n)
	}
	return runLockstep(cfg, n, workers)
}

// lockstep is the state of one run that the workers share. The
// coordinator writes msgs and g between phases; the channel hand-offs
// around each phase order those writes before the workers' reads, and
// the workers' process writes before the coordinator's next Send.
type lockstep struct {
	procs  []Algorithm
	msgs   []any
	g      *graph.Digraph // the round's graph
	shards []shard
	exited sync.WaitGroup
}

// shard is one worker's contiguous block of processes and its receive
// buffer, which the Algorithm contract makes valid for one Transition
// call only.
type shard struct {
	lo, hi int
	recv   []any
	start  chan int // the round to step, 0 for Init; closed to stop the worker
	done   chan any // per step: the value the step panicked with, or nil
}

// runLockstep is RunSequential at a given worker count.
func runLockstep(cfg Config, n, workers int) (*Result, error) {
	ls := &lockstep{procs: make([]Algorithm, n), msgs: make([]any, n), shards: make([]shard, workers)}
	for i := range ls.procs {
		ls.procs[i] = cfg.NewProcess(i)
	}
	for w := range ls.shards {
		s := &ls.shards[w]
		s.lo, s.hi, s.recv = w*n/workers, (w+1)*n/workers, make([]any, n)
		if w > 0 {
			// One step is outstanding at a time, so neither side blocks
			// on a hand-off the other has abandoned.
			s.start, s.done = make(chan int, 1), make(chan any, 1)
			ls.exited.Add(1)
			go ls.work(s)
		}
	}
	defer ls.stop()
	ls.phase(0)

	res := &Result{Procs: ls.procs}
	for r := 1; r <= cfg.MaxRounds; r++ {
		for i, p := range ls.procs {
			ls.msgs[i] = p.Send(r)
		}
		ls.g = cfg.Adversary.Graph(r)
		if err := CheckGraph(ls.g, n, r); err != nil {
			return nil, err
		}
		ls.phase(r)
		res.Rounds = r
		if cfg.Observer != nil {
			cfg.Observer.OnRound(r, ls.g, ls.procs)
		}
		if cfg.StopWhen != nil && cfg.StopWhen(r, ls.procs) {
			res.Stopped = true
			break
		}
	}
	return res, nil
}

// phase steps every shard through round r and returns when all have
// finished. A panic in the caller's own shard propagates as it is (stop
// then waits for the others); a panic in another shard is re-raised here
// once every shard has finished, lowest block first — either way the
// value the inline loop would have panicked with.
func (ls *lockstep) phase(r int) {
	for w := 1; w < len(ls.shards); w++ {
		ls.shards[w].start <- r
	}
	ls.step(&ls.shards[0], r)
	var failed any
	for w := 1; w < len(ls.shards); w++ {
		if v := <-ls.shards[w].done; v != nil && failed == nil {
			failed = v
		}
	}
	if failed != nil {
		panic(failed)
	}
}

// step runs round r for the processes of one shard: fill recv[p] with
// msgs[p] exactly when the edge p->q is in the round's graph, nil
// otherwise, then apply q's transition.
func (ls *lockstep) step(s *shard, r int) {
	for q := s.lo; q < s.hi; q++ {
		if r == 0 {
			ls.procs[q].Init(q, len(ls.procs))
			continue
		}
		clear(s.recv)
		ls.g.ForEachIn(q, func(p int) { s.recv[p] = ls.msgs[p] })
		ls.procs[q].Transition(r, s.recv)
	}
}

// work is the body of workers 1 and up.
func (ls *lockstep) work(s *shard) {
	defer ls.exited.Done()
	for r := range s.start {
		ls.guarded(s, r)
	}
}

// guarded is step with the panic, if any, reported instead of raised.
func (ls *lockstep) guarded(s *shard, r int) {
	defer s.report()
	ls.step(s, r)
}

func (s *shard) report() { s.done <- recover() }

// stop ends the workers and waits for them; a worker still inside a step
// finishes it first.
func (ls *lockstep) stop() {
	for w := 1; w < len(ls.shards); w++ {
		close(ls.shards[w].start)
	}
	ls.exited.Wait()
}
