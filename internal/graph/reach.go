package graph

import "math/bits"

// ReachScratch holds the reusable traversal state (visited bitset plus
// DFS stack) of the reachability and connectivity kernels, so per-round
// calls allocate nothing in steady state. The zero value is ready to use,
// and one scratch may serve graphs of different universe sizes: walk
// regrows it on demand and reuses the storage otherwise.
type ReachScratch struct {
	seen  NodeSet
	stack []int
}

// walk fills s.seen with every node reachable from start in g along out
// rows, or along in rows when backward. It is the one frontier walk
// behind every reachability, prune and connectivity kernel of Digraph and
// Labeled. The walk is word-parallel: each popped node merges its whole
// arena row with one AND-NOT + OR per word, and only newly seen nodes are
// pushed; in a one-word universe the frontier is a register, walked one
// breadth-first level at a time. The returned set is s.seen and stays
// valid only until the scratch is reused.
func (s *ReachScratch) walk(g *Digraph, backward bool, start int) NodeSet {
	w := len(g.present.words)
	if cap(s.seen.words) < w {
		s.seen.words = make([]uint64, w)
	}
	seen := s.seen.words[:w]
	clear(seen)
	s.seen.words = seen
	rows := g.arena[w : (1+g.n)*w]
	if backward {
		rows = g.arena[(1+g.n)*w:]
	}
	if w == 1 { // a level's row loads are independent of each other
		v, level := uint64(1)<<start, uint64(1)<<start
		for ; level != 0; v |= level {
			var next uint64
			for f := level; f != 0; f &= f - 1 {
				next |= rows[bits.TrailingZeros64(f)]
			}
			level = next &^ v
		}
		seen[0] = v
		return s.seen
	}
	seen[start/wordBits] |= 1 << (start % wordBits)
	if cap(s.stack) < g.n {
		s.stack = make([]int, 0, g.n)
	}
	stack := append(s.stack[:0], start)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		row := rows[u*w : (u+1)*w]
		seen := seen[:len(row)]
		for i, x := range row {
			nw := x &^ seen[i]
			seen[i] |= nw
			for ; nw != 0; nw &= nw - 1 {
				stack = append(stack, i*wordBits+bits.TrailingZeros64(nw))
			}
		}
	}
	s.stack = stack
	return s.seen
}

// reachable returns the set of present nodes reachable from v by a
// directed path of length >= 0 (v itself included). It panics if v is not
// present.
func reachable(g *Digraph, v int) NodeSet {
	var s ReachScratch
	return reachableInto(g, v, &s)
}

// reachableInto is reachable with caller-owned scratch: the returned set
// is the scratch's visited set and stays valid only until the scratch is
// reused.
func reachableInto(g *Digraph, v int, s *ReachScratch) NodeSet {
	if !g.HasNode(v) {
		panic("graph: Reachable from absent node")
	}
	return s.walk(g, false, v)
}

// nodesReaching returns the set of present nodes that can reach v by a
// directed path of length >= 0 (v itself included). Algorithm 1 line 25
// keeps exactly these nodes in the approximation graph.
func nodesReaching(g *Digraph, v int) NodeSet {
	var s ReachScratch
	return nodesReachingInto(g, v, &s)
}

// nodesReachingInto is nodesReaching with caller-owned scratch: the
// returned set is the scratch's visited set and stays valid only until
// the scratch is reused.
func nodesReachingInto(g *Digraph, v int, s *ReachScratch) NodeSet {
	if !g.HasNode(v) {
		panic("graph: NodesReaching on absent node")
	}
	return s.walk(g, true, v)
}

// Distances returns the BFS distance (number of edges on a shortest path)
// from src to every node; unreachable nodes get -1. Self-loops do not
// shorten anything: dist[src] is 0.
func Distances(g *Digraph, src int) []int {
	if !g.HasNode(src) {
		panic("graph: Distances from absent node")
	}
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.out[u].ForEach(func(w int) {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		})
	}
	return dist
}
