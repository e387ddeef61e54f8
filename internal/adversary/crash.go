package adversary

import (
	"fmt"
	"math/rand"
	"sort"

	"kset/internal/graph"
)

// CrashSchedule assigns crash rounds to processes: Rounds[p] = r > 0
// means p crashes in round r (its round-r message reaches only the
// survivors listed in partial[p], if any, and from round r+1 on nobody
// hears p again except p itself). Rounds[p] = 0 means p never crashes.
//
// This is the paper's crash modelling (Section II): a crashed process is
// an "internally correct" process no other process receives messages from
// after the crash — it keeps taking steps and must still decide.
type CrashSchedule struct {
	Rounds  []int
	partial []graph.NodeSet // receivers of the crash-round message; nil = nobody
}

// NewCrashSchedule returns a schedule for n processes with no crashes.
func NewCrashSchedule(n int) *CrashSchedule {
	return &CrashSchedule{Rounds: make([]int, n), partial: make([]graph.NodeSet, n)}
}

// Crash marks process p as crashing in round r with no crash-round
// deliveries.
func (s *CrashSchedule) Crash(p, r int) *CrashSchedule {
	s.Rounds[p] = r
	s.partial[p] = graph.NodeSet{}
	return s
}

// crashPartial marks process p as crashing in round r with its round-r
// message still delivered to the given receivers (modelling a crash
// mid-broadcast).
func (s *CrashSchedule) crashPartial(p, r int, receivers graph.NodeSet) *CrashSchedule {
	s.Rounds[p] = r
	s.partial[p] = receivers
	return s
}

// NumCrashes returns the number of processes that ever crash.
func (s *CrashSchedule) NumCrashes() int {
	c := 0
	for _, r := range s.Rounds {
		if r > 0 {
			c++
		}
	}
	return c
}

// Crashes builds the run induced by the schedule on top of an otherwise
// fully synchronous system (complete graph). The stable skeleton is the
// complete graph minus all out-edges of crashed processes (self-loops
// kept).
func Crashes(n int, sched *CrashSchedule) *Run {
	if len(sched.Rounds) != n {
		panic(fmt.Sprintf("adversary: schedule for %d processes, want %d", len(sched.Rounds), n))
	}
	last := 0
	for p, r := range sched.Rounds {
		if r < 0 {
			panic(fmt.Sprintf("adversary: negative crash round for p%d", p+1))
		}
		if r > last {
			last = r
		}
	}
	prefix := make([]*graph.Digraph, 0, last)
	for r := 1; r <= last; r++ {
		prefix = append(prefix, crashGraph(n, sched, r))
	}
	// Stable graph: after every crash has happened.
	return NewRun(prefix, crashGraph(n, sched, last+1))
}

// crashGraph materializes the round-r communication graph under the
// schedule.
func crashGraph(n int, sched *CrashSchedule, r int) *graph.Digraph {
	g := graph.CompleteDigraph(n)
	for p := 0; p < n; p++ {
		cr := sched.Rounds[p]
		if cr == 0 || r < cr {
			continue // alive through this round
		}
		for v := 0; v < n; v++ {
			if v == p {
				continue // self-loop survives: p keeps hearing itself
			}
			if r == cr && sched.partial[p].Has(v) {
				continue // crash-round partial delivery
			}
			g.RemoveEdge(p, v)
		}
	}
	return g
}

// RandomCrashes returns a run in which f distinct random processes crash
// at random rounds in [1, maxRound], each with a random partial delivery
// set, together with the schedule (so callers can distinguish survivors
// from crashed-but-internally-correct processes). The classic t-resilient
// synchronous environment used to exercise the FloodMin/FloodSet
// baselines.
func RandomCrashes(n, f, maxRound int, rng *rand.Rand) (*Run, *CrashSchedule) {
	if f < 0 || f > n {
		panic(fmt.Sprintf("adversary: f=%d out of range [0,%d]", f, n))
	}
	sched := NewCrashSchedule(n)
	victims := rng.Perm(n)[:f]
	sort.Ints(victims)
	for _, p := range victims {
		r := 1 + rng.Intn(maxRound)
		recv := graph.NewNodeSet(n)
		for v := 0; v < n; v++ {
			if v != p && rng.Intn(2) == 0 {
				recv.Add(v)
			}
		}
		sched.crashPartial(p, r, recv)
	}
	return Crashes(n, sched), sched
}

// Partition returns the run of a permanently partitioned system: blocks
// are disjoint process groups, communication is complete inside a block
// and absent across blocks. Every block is one root component, so MinK of
// the skeleton equals the number of blocks: the motivating scenario for
// k-set agreement in partitionable systems (paper Section I) with
// k = number of partitions.
func Partition(n int, blocks [][]int) *Run {
	g := graph.NewFullDigraph(n)
	g.AddSelfLoops()
	seen := graph.NewNodeSet(n)
	for _, block := range blocks {
		for _, u := range block {
			if seen.Has(u) {
				panic(fmt.Sprintf("adversary: p%d in two partitions", u+1))
			}
			seen.Add(u)
			for _, v := range block {
				g.AddEdge(u, v)
			}
		}
	}
	if seen.Len() != n {
		panic("adversary: partition blocks must cover all processes")
	}
	return Static(g)
}

// EvenPartition splits 0..n-1 into `blocks` contiguous groups of
// near-equal size.
func EvenPartition(n, blocks int) [][]int {
	if blocks < 1 || blocks > n {
		panic(fmt.Sprintf("adversary: cannot split %d processes into %d blocks", n, blocks))
	}
	out := make([][]int, blocks)
	for v := 0; v < n; v++ {
		b := v * blocks / n
		out[b] = append(out[b], v)
	}
	return out
}
