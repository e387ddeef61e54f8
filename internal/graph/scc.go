package graph

// SCCScratch holds the reusable Tarjan state (index/low/onStack arrays,
// component stack, and DFS frames), so repeated SCC computations stop
// allocating traversal storage per call — only the resulting component
// sets are allocated. The zero value is ready to use; one scratch may
// serve graphs of different universe sizes.
type SCCScratch struct {
	index, low []int
	onStack    []bool
	stack      []int
	frameV     []int // DFS frames: node per frame
	frameCur   []int // DFS frames: next out-neighbor candidate (resume point)
}

const sccUnvisited = -1

// reset prepares the scratch for a universe of n nodes.
func (s *SCCScratch) reset(n int) {
	if cap(s.index) < n {
		s.index = make([]int, n)
		s.low = make([]int, n)
		s.onStack = make([]bool, n)
		s.stack = make([]int, 0, n)
		s.frameV = make([]int, 0, n)
		s.frameCur = make([]int, 0, n)
	}
	s.index = s.index[:n]
	s.low = s.low[:n]
	s.onStack = s.onStack[:n]
	for i := range s.index {
		s.index[i] = sccUnvisited
		s.onStack[i] = false
	}
	s.stack = s.stack[:0]
	s.frameV = s.frameV[:0]
	s.frameCur = s.frameCur[:0]
}

// SCC computes the strongly connected components of g using Tarjan's
// algorithm (iterative, so deep graphs cannot overflow the goroutine
// stack). Components are returned in reverse topological order of the
// condensation (a component appears before any component it has an edge
// into), each as a NodeSet; only present nodes are considered. Components
// are nonempty and maximal, matching the paper's convention.
func SCC(g *Digraph) []NodeSet {
	var s SCCScratch
	return s.SCC(g)
}

// SCC is the scratch-reusing variant of the package-level SCC: traversal
// state lives in s and is reused across calls; only the returned
// component sets are freshly allocated.
func (s *SCCScratch) SCC(g *Digraph) []NodeSet {
	n := g.N()
	s.reset(n)
	var comps []NodeSet
	counter := 0

	visit := func(root int) {
		s.index[root] = counter
		s.low[root] = counter
		counter++
		s.stack = append(s.stack, root)
		s.onStack[root] = true
		s.frameV = append(s.frameV, root)
		s.frameCur = append(s.frameCur, 0)

		for len(s.frameV) > 0 {
			ti := len(s.frameV) - 1
			v := s.frameV[ti]
			advanced := false
			for {
				w := g.out[v].Next(s.frameCur[ti])
				if w < 0 {
					break
				}
				s.frameCur[ti] = w + 1
				if s.index[w] == sccUnvisited {
					s.index[w] = counter
					s.low[w] = counter
					counter++
					s.stack = append(s.stack, w)
					s.onStack[w] = true
					s.frameV = append(s.frameV, w)
					s.frameCur = append(s.frameCur, 0)
					advanced = true
					break
				}
				if s.onStack[w] && s.index[w] < s.low[v] {
					s.low[v] = s.index[w]
				}
			}
			if advanced {
				continue
			}
			// All neighbors of v processed: pop.
			s.frameV = s.frameV[:ti]
			s.frameCur = s.frameCur[:ti]
			if ti > 0 {
				parent := s.frameV[ti-1]
				if s.low[v] < s.low[parent] {
					s.low[parent] = s.low[v]
				}
			}
			if s.low[v] == s.index[v] {
				comp := NewNodeSet(n)
				for {
					w := s.stack[len(s.stack)-1]
					s.stack = s.stack[:len(s.stack)-1]
					s.onStack[w] = false
					comp.Add(w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}

	g.present.ForEach(func(v int) {
		if s.index[v] == sccUnvisited {
			visit(v)
		}
	})
	return comps
}

// SCCKosaraju computes strongly connected components with Kosaraju's
// two-pass algorithm. It exists as an independent implementation used by
// the test suite to cross-check SCC; production code should prefer SCC.
// Components are returned in topological order of the condensation.
func SCCKosaraju(g *Digraph) []NodeSet {
	n := g.N()
	visited := make([]bool, n)
	order := make([]int, 0, g.NumNodes())

	// First pass: record reverse-finish order on g.
	var stack []int
	var iters [][]int
	g.present.ForEach(func(s int) {
		if visited[s] {
			return
		}
		visited[s] = true
		stack = append(stack[:0], s)
		iters = append(iters[:0], g.out[s].Elems())
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			it := iters[len(iters)-1]
			advanced := false
			for len(it) > 0 {
				w := it[0]
				it = it[1:]
				if !visited[w] {
					visited[w] = true
					iters[len(iters)-1] = it
					stack = append(stack, w)
					iters = append(iters, g.out[w].Elems())
					advanced = true
					break
				}
			}
			if advanced {
				continue
			}
			iters[len(iters)-1] = it
			order = append(order, v)
			stack = stack[:len(stack)-1]
			iters = iters[:len(iters)-1]
		}
	})

	// Second pass: DFS on the transpose in reverse finish order.
	t := g.Transpose()
	for i := range visited {
		visited[i] = false
	}
	var comps []NodeSet
	for i := len(order) - 1; i >= 0; i-- {
		s := order[i]
		if visited[s] {
			continue
		}
		comp := NewNodeSet(n)
		visited[s] = true
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp.Add(v)
			t.out[v].ForEach(func(w int) {
				if !visited[w] {
					visited[w] = true
					stack = append(stack, w)
				}
			})
		}
		comps = append(comps, comp)
	}
	return comps
}

// ComponentOf returns the strongly connected component of v in g, i.e. the
// paper's C^r_p when g is the round-r skeleton. It panics if v is not
// present.
func ComponentOf(g *Digraph, v int) NodeSet {
	if !g.HasNode(v) {
		panic("graph: ComponentOf on absent node")
	}
	fwd := Reachable(g, v)
	bwd := NodesReaching(g, v)
	return fwd.Intersect(bwd)
}

// StronglyConnected reports whether the present nodes of g form a single
// strongly connected component. The empty graph is not strongly connected;
// a single node is (with or without a self-loop), matching the decision
// test of Algorithm 1 line 28.
func StronglyConnected(g *Digraph) bool {
	var s ReachScratch
	return g.stronglyConnected(&s)
}

// stronglyConnected is the one connectivity test of the package: from the
// smallest present node, the forward walk and the backward walk must each
// cover exactly the present set. With a warm scratch it allocates nothing.
func (g *Digraph) stronglyConnected(s *ReachScratch) bool {
	first := g.present.Min()
	if first < 0 {
		return false
	}
	return s.walk(g.out, first).Equal(g.present) && s.walk(g.in, first).Equal(g.present)
}
