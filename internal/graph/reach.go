package graph

import "math/bits"

// ReachScratch holds the reusable traversal state (visited bitset plus
// DFS stack) of the reachability and connectivity kernels, so per-round
// calls allocate nothing in steady state. The zero value is ready to use,
// and one scratch may serve graphs of different universe sizes: reset
// regrows it on demand and reuses the storage otherwise.
type ReachScratch struct {
	seen  NodeSet
	stack []int
}

// reset prepares the scratch for one traversal over a universe of n
// nodes: the visited set is sized and cleared, the stack emptied.
func (s *ReachScratch) reset(n int) {
	w := (n + wordBits - 1) / wordBits
	if cap(s.seen.words) < w {
		s.seen.words = make([]uint64, w)
	}
	s.seen.words = s.seen.words[:w]
	s.seen.Clear()
	if cap(s.stack) < n {
		s.stack = make([]int, 0, n)
	}
	s.stack = s.stack[:0]
}

// walk fills s.seen with every node reachable from start along rows,
// where rows[u] is the set of nodes one step from u: a graph's out rows
// walk forward, its in rows backward. It is the one frontier walk behind
// every reachability, prune and connectivity kernel of Digraph and
// Labeled. The walk is word-parallel: each popped node merges its whole
// row with one AND-NOT + OR per word, and only newly seen nodes are
// pushed. The returned set is s.seen and stays valid only until the
// scratch is reused.
func (s *ReachScratch) walk(rows []NodeSet, start int) NodeSet {
	s.reset(len(rows))
	s.seen.set(start)
	s.stack = append(s.stack, start)
	for len(s.stack) > 0 {
		u := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for i, w := range rows[u].words {
			nw := w &^ s.seen.words[i]
			if nw == 0 {
				continue
			}
			s.seen.words[i] |= nw
			for nw != 0 {
				b := bits.TrailingZeros64(nw)
				nw &^= 1 << b
				s.stack = append(s.stack, i*wordBits+b)
			}
		}
	}
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
	return s.walk(g.out, v)
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
	return s.walk(g.in, v)
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
