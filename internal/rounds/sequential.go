package rounds

import (
	"runtime"

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
// on min(GOMAXPROCS, n) workers over contiguous blocks of processes
// (Shards), the caller being worker 0; every worker has stopped when
// RunSequential returns or panics, and a panic in a process is re-raised
// on the caller with its original value. Below shardMinN, or with
// GOMAXPROCS = 1, no goroutine is started. The result does not depend on
// the worker count.
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
// coordinator writes msgs and g between phases.
type lockstep struct {
	procs []Algorithm
	msgs  []any
	g     *graph.Digraph // the round's graph
	recv  [][]any        // per worker; the Algorithm contract makes it valid for one Transition call only
}

// runLockstep is RunSequential at a given worker count.
func runLockstep(cfg Config, n, workers int) (*Result, error) {
	ls := &lockstep{procs: make([]Algorithm, n), msgs: make([]any, n), recv: make([][]any, workers)}
	for i := range ls.procs {
		ls.procs[i] = cfg.NewProcess(i)
	}
	for w := range ls.recv {
		ls.recv[w] = make([]any, n)
	}
	pool := NewShards(n, workers, ls.step)
	defer pool.Stop()
	pool.Phase(0)

	res := &Result{Procs: ls.procs}
	for r := 1; r <= cfg.MaxRounds; r++ {
		for i, p := range ls.procs {
			ls.msgs[i] = p.Send(r)
		}
		ls.g = cfg.Adversary.Graph(r)
		if err := CheckGraph(ls.g, n, r); err != nil {
			return nil, err
		}
		pool.Phase(r)
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

// step runs round r for the processes of one shard (Init for r = 0):
// fill recv[p] with msgs[p] exactly when the edge p->q is in the round's
// graph, nil otherwise, then apply q's transition.
func (ls *lockstep) step(w, lo, hi, r int) {
	recv := ls.recv[w]
	for q := lo; q < hi; q++ {
		if r == 0 {
			ls.procs[q].Init(q, len(ls.procs))
			continue
		}
		clear(recv)
		ls.g.ForEachIn(q, func(p int) { recv[p] = ls.msgs[p] })
		ls.procs[q].Transition(r, recv)
	}
}
