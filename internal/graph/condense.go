package graph

// condensation is the DAG obtained by contracting every strongly connected
// component of a digraph to a single node (paper, proof of Lemma 11). Comp
// i of Comps corresponds to node i of DAG; NodeComp maps each present node
// of the original graph to its component index.
type condensation struct {
	Comps    []NodeSet
	DAG      *Digraph
	NodeComp []int
}

// condense computes the condensation of g. Components are indexed in the
// order returned by SCC (reverse topological). Self-loops of the DAG are
// never created: an edge inside a component is contracted away.
func condense(g *Digraph) *condensation {
	comps := SCC(g)
	nodeComp := make([]int, g.N())
	for i := range nodeComp {
		nodeComp[i] = -1
	}
	for ci, comp := range comps {
		comp.ForEach(func(v int) { nodeComp[v] = ci })
	}
	dag := NewDigraph(len(comps))
	for ci := range comps {
		dag.AddNode(ci)
	}
	g.present.ForEach(func(u int) {
		g.out[u].ForEach(func(v int) {
			cu, cv := nodeComp[u], nodeComp[v]
			if cu != cv {
				dag.AddEdge(cu, cv)
			}
		})
	})
	return &condensation{Comps: comps, DAG: dag, NodeComp: nodeComp}
}

// RootComponents returns the root components of g: strongly connected
// components with no incoming edges from outside the component (paper,
// Section II). Every nonempty digraph has at least one root component
// because the condensation is acyclic (used in the proof of Lemma 11).
// Results are ordered by smallest member for determinism.
func RootComponents(g *Digraph) []NodeSet {
	c := condense(g)
	var roots []NodeSet
	for ci, comp := range c.Comps {
		if c.DAG.inDegree(ci) == 0 {
			roots = append(roots, comp)
		}
	}
	sortNodeSets(roots)
	return roots
}
