package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// bruteSCC computes components via pairwise reachability, the simplest
// possible oracle implementation.
func bruteSCC(g *Digraph) []NodeSet {
	var comps []NodeSet
	assigned := NewNodeSet(g.N())
	g.Nodes().ForEach(func(v int) {
		if assigned.Has(v) {
			return
		}
		comp := ComponentOf(g, v)
		assigned.UnionWith(comp)
		comps = append(comps, comp)
	})
	return comps
}

func sameComponents(a, b []NodeSet) bool {
	if len(a) != len(b) {
		return false
	}
	a = append([]NodeSet(nil), a...)
	b = append([]NodeSet(nil), b...)
	sortNodeSets(a)
	sortNodeSets(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestSCCLineGraph(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	comps := SCC(g)
	if len(comps) != 4 {
		t.Fatalf("len = %d, want 4 singletons", len(comps))
	}
}

func TestSCCCycle(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	comps := SCC(g)
	if len(comps) != 1 || comps[0].Len() != 3 {
		t.Fatalf("comps = %v", comps)
	}
}

func TestSCCTwoComponents(t *testing.T) {
	g := NewDigraph(5)
	// component {0,1}, component {2,3,4}, bridge 1->2
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	g.AddEdge(1, 2)
	comps := SCC(g)
	if len(comps) != 2 {
		t.Fatalf("len = %d, want 2", len(comps))
	}
	if !sameComponents(comps, []NodeSet{NodeSetOf(0, 1), NodeSetOf(2, 3, 4)}) {
		t.Fatalf("comps = %v", comps)
	}
}

func TestSCCReverseTopologicalOrder(t *testing.T) {
	// Tarjan emits a component before any component it points into.
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	comps := SCC(g)
	if len(comps) != 2 {
		t.Fatalf("len = %d", len(comps))
	}
	if !comps[0].Equal(NodeSetOf(2, 3)) {
		t.Fatalf("first component %v, want downstream {p3,p4}", comps[0])
	}
}

func TestSCCIgnoresAbsentNodes(t *testing.T) {
	g := NewDigraph(6)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	comps := SCC(g)
	if len(comps) != 1 || !comps[0].Equal(NodeSetOf(1, 2)) {
		t.Fatalf("comps = %v", comps)
	}
}

func TestSCCEmpty(t *testing.T) {
	if comps := SCC(NewDigraph(4)); len(comps) != 0 {
		t.Fatalf("comps of empty graph = %v", comps)
	}
}

func TestSCCAgainstBruteForceAndKosaraju(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		g := RandomDigraph(n, rng.Float64()*0.5, rng)
		// Randomly drop some nodes so the present set is a strict subset.
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.2 {
				g.removeNode(v)
			}
		}
		want := bruteSCC(g)
		if got := SCC(g); !sameComponents(got, want) {
			t.Fatalf("Tarjan mismatch on %v:\n got  %v\n want %v", g, got, want)
		}
		if got := sccKosaraju(g); !sameComponents(got, want) {
			t.Fatalf("Kosaraju mismatch on %v:\n got  %v\n want %v", g, got, want)
		}
	}
}

func TestSCCComponentsPartitionNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		g := RandomDigraph(10, 0.25, rng)
		comps := SCC(g)
		union := NewNodeSet(10)
		total := 0
		for _, c := range comps {
			if c.Len() == 0 {
				t.Fatal("empty component")
			}
			if union.Intersects(c) {
				t.Fatal("components overlap")
			}
			union.UnionWith(c)
			total += c.Len()
		}
		if !union.Equal(g.Nodes()) || total != g.numNodes() {
			t.Fatal("components do not partition the nodes")
		}
	}
}

func TestSCCDeepGraphNoStackOverflow(t *testing.T) {
	const n = 50000
	g := NewDigraph(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(n-1, 0) // one giant cycle
	comps := SCC(g)
	if len(comps) != 1 || comps[0].Len() != n {
		t.Fatalf("giant cycle not a single component: %d comps", len(comps))
	}
}

func TestComponentOf(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddNode(4)
	if got := ComponentOf(g, 0); !got.Equal(NodeSetOf(0, 1)) {
		t.Fatalf("ComponentOf(0) = %v", got)
	}
	if got := ComponentOf(g, 2); !got.Equal(NodeSetOf(2)) {
		t.Fatalf("ComponentOf(2) = %v", got)
	}
	if got := ComponentOf(g, 4); !got.Equal(NodeSetOf(4)) {
		t.Fatalf("ComponentOf(4) = %v", got)
	}
}

func TestStronglyConnected(t *testing.T) {
	single := NewDigraph(3)
	single.AddNode(1)
	if !single.stronglyConnected(new(ReachScratch)) {
		t.Fatal("single node should be strongly connected (Algorithm 1 line 28)")
	}
	empty := NewDigraph(3)
	if empty.stronglyConnected(new(ReachScratch)) {
		t.Fatal("empty graph should not be strongly connected")
	}
	cyc := NewDigraph(3)
	cyc.AddEdge(0, 1)
	cyc.AddEdge(1, 2)
	cyc.AddEdge(2, 0)
	if !cyc.stronglyConnected(new(ReachScratch)) {
		t.Fatal("cycle should be strongly connected")
	}
	cyc.AddNode(0) // no-op
	cyc.RemoveEdge(2, 0)
	if cyc.stronglyConnected(new(ReachScratch)) {
		t.Fatal("broken cycle reported strongly connected")
	}
}

func TestStronglyConnectedMatchesSCCCount(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		g := RandomDigraph(8, rng.Float64(), rng)
		want := len(SCC(g)) == 1
		if got := g.stronglyConnected(new(ReachScratch)); got != want {
			t.Fatalf("StronglyConnected = %v, SCC count says %v for %v", got, want, g)
		}
	}
}

func TestSCCLabelSetsSorted(t *testing.T) {
	// Kosaraju returns topological order: upstream component first.
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	comps := sccKosaraju(g)
	if len(comps) != 2 || !comps[0].Equal(NodeSetOf(0, 1)) {
		t.Fatalf("Kosaraju order wrong: %v", comps)
	}
	// And the two orders are exact reverses for a chain of SCCs.
	tarjan := SCC(g)
	for i := range tarjan {
		if !tarjan[i].Equal(comps[len(comps)-1-i]) {
			t.Fatalf("orders not reversed: tarjan=%v kosaraju=%v", tarjan, comps)
		}
	}
}

func TestSCCSingletonSelfLoop(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(0, 0)
	g.AddNode(1)
	comps := SCC(g)
	sort.Slice(comps, func(i, j int) bool { return comps[i].Min() < comps[j].Min() })
	if len(comps) != 2 || comps[0].Len() != 1 || comps[1].Len() != 1 {
		t.Fatalf("comps = %v", comps)
	}
}

// sccKosaraju computes strongly connected components with Kosaraju's
// two-pass algorithm. It exists as an independent implementation used by
// the test suite to cross-check SCC; production code should prefer SCC.
// Components are returned in topological order of the condensation.
func sccKosaraju(g *Digraph) []NodeSet {
	n := g.N()
	visited := make([]bool, n)
	order := make([]int, 0, g.numNodes())

	// First pass: record reverse-finish order on g.
	var stack []int
	var iters [][]int
	g.present.ForEach(func(s int) {
		if visited[s] {
			return
		}
		visited[s] = true
		stack = append(stack[:0], s)
		iters = append(iters[:0], g.out[s].elems())
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
					iters = append(iters, g.out[w].elems())
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
	t := g.transpose()
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

// transpose returns the graph with every edge reversed.
func (g *Digraph) transpose() *Digraph {
	r := NewDigraph(g.n)
	g.present.ForEach(func(v int) { r.AddNode(v) })
	g.present.ForEach(func(u int) {
		g.out[u].ForEach(func(v int) { r.AddEdge(v, u) })
	})
	return r
}

// numNodes returns the number of present nodes.
func (g *Digraph) numNodes() int { return g.present.Len() }
