package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Edge is a directed edge from From to To.
type Edge struct {
	From, To int
}

func (e Edge) String() string { return fmt.Sprintf("p%d->p%d", e.From+1, e.To+1) }

// Digraph is a directed graph over a node universe 0..n-1 with an explicit
// present-node set (the paper distinguishes V from Π: approximation graphs
// contain only the processes a node has heard about). Both out- and
// in-adjacency are maintained so that timely neighborhoods (in-neighbor
// queries) are O(1).
//
// All 2n+1 node sets live in one flat arena — words [0,w) hold present,
// row i of out starts at (1+i)·w and row i of in at (1+n+i)·w, with
// w = ⌈n/64⌉ — so a graph is three allocations, and Clone, Labeled's
// whole-graph merge and its dense Reset are single passes over the arena.
// Every mutation is range-checked against n, so no set ever grows out of
// its slot; the full-capacity reslices make a stray append reallocate
// instead of clobbering the neighbouring row.
type Digraph struct {
	n       int
	present NodeSet
	out     []NodeSet
	in      []NodeSet
	arena   []uint64
}

// NewDigraph returns an empty graph over the universe 0..n-1 with no nodes
// present.
func NewDigraph(n int) *Digraph {
	g := makeDigraph(n)
	return &g
}

// makeDigraph lays out the arena of NewDigraph and returns the graph by
// value, so Labeled can hold its unweighted shadow without another pointer
// hop on the per-edge paths.
func makeDigraph(n int) Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative universe size %d", n))
	}
	words := (n + wordBits - 1) / wordBits
	sets := make([]NodeSet, 2*n)
	arena := make([]uint64, (2*n+1)*words)
	g := Digraph{
		n:       n,
		present: NodeSet{words: arena[0:words:words]},
		out:     sets[:n:n],
		in:      sets[n:],
		arena:   arena,
	}
	for i := 0; i < n; i++ {
		lo := (1 + i) * words
		g.out[i] = NodeSet{words: arena[lo : lo+words : lo+words]}
		lo = (1 + n + i) * words
		g.in[i] = NodeSet{words: arena[lo : lo+words : lo+words]}
	}
	return g
}

// NewFullDigraph returns a graph over 0..n-1 with all nodes present and no
// edges.
func NewFullDigraph(n int) *Digraph {
	g := NewDigraph(n)
	for i := 0; i < n; i++ {
		g.AddNode(i)
	}
	return g
}

// CompleteDigraph returns the complete graph on n nodes including all
// self-loops: every process hears from every process.
func CompleteDigraph(n int) *Digraph {
	g := NewFullDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// N returns the size of the node universe.
func (g *Digraph) N() int { return g.n }

// Nodes returns the set of present nodes (a copy).
func (g *Digraph) Nodes() NodeSet { return g.present.Clone() }

// HasNode reports whether v is present.
func (g *Digraph) HasNode(v int) bool { return g.present.Has(v) }

// AddNode marks v present.
func (g *Digraph) AddNode(v int) {
	g.check(v)
	g.present.Add(v)
}

// removeNode removes v and all its incident edges.
func (g *Digraph) removeNode(v int) {
	g.check(v)
	if !g.present.Has(v) {
		return
	}
	g.out[v].ForEach(func(w int) { g.in[w].Remove(v) })
	g.in[v].ForEach(func(u int) { g.out[u].Remove(v) })
	g.out[v].Clear()
	g.in[v].Clear()
	g.present.Remove(v)
}

// AddEdge inserts the edge u->v, adding both endpoints if absent.
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.present.Add(u)
	g.present.Add(v)
	g.out[u].Add(v)
	g.in[v].Add(u)
}

// RemoveEdge deletes the edge u->v if present; endpoints stay.
func (g *Digraph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.out[u].Remove(v)
	g.in[v].Remove(u)
}

// HasEdge reports whether the edge u->v exists.
func (g *Digraph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	return g.out[u].Has(v)
}

// OutNeighbors returns a copy of the out-neighborhood of v.
func (g *Digraph) OutNeighbors(v int) NodeSet {
	g.check(v)
	return g.out[v].Clone()
}

// OutRow returns the out-neighborhood of v itself, not a copy: a
// read-only view, valid until g is next mutated, for a caller that copies
// one row per round without allocating.
func (g *Digraph) OutRow(v int) NodeSet {
	g.check(v)
	return g.out[v]
}

// InNeighbors returns a copy of the in-neighborhood of v. For a round graph
// G^r this is exactly the set of processes v hears from in round r.
func (g *Digraph) InNeighbors(v int) NodeSet {
	g.check(v)
	return g.in[v].Clone()
}

// HasCommonInNeighbor reports whether some process sends to both q and
// qq, i.e. PT(q) ∩ PT(qq) ≠ ∅ when g is a skeleton. Unlike intersecting
// the InNeighbors copies, this compares the stored bitsets directly.
func (g *Digraph) HasCommonInNeighbor(q, qq int) bool {
	g.check(q)
	g.check(qq)
	return g.in[q].Intersects(g.in[qq])
}

// ForEachOut calls fn for every out-neighbor of v in ascending order.
func (g *Digraph) ForEachOut(v int, fn func(w int)) {
	g.check(v)
	g.out[v].ForEach(fn)
}

// ForEachIn calls fn for every in-neighbor of v in ascending order.
func (g *Digraph) ForEachIn(v int, fn func(u int)) {
	g.check(v)
	g.in[v].ForEach(fn)
}

// OutDegree returns the number of out-neighbors of v.
func (g *Digraph) OutDegree(v int) int {
	g.check(v)
	return g.out[v].Len()
}

// inDegree returns the number of in-neighbors of v.
func (g *Digraph) inDegree(v int) int {
	g.check(v)
	return g.in[v].Len()
}

// NumEdges returns the total number of edges, self-loops included.
func (g *Digraph) NumEdges() int {
	n := 0
	g.present.ForEach(func(v int) { n += g.out[v].Len() })
	return n
}

// Edges returns every edge in deterministic (from, to) order.
func (g *Digraph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	g.present.ForEach(func(u int) {
		g.out[u].ForEach(func(v int) {
			edges = append(edges, Edge{u, v})
		})
	})
	return edges
}

// AddSelfLoops adds v->v for every present node. Round graphs in this
// reproduction always contain all self-loops (every process hears itself;
// cf. the caption of the paper's Figure 1).
func (g *Digraph) AddSelfLoops() {
	g.present.ForEach(func(v int) { g.AddEdge(v, v) })
}

// Clone returns a deep copy of g: one flat copy of the arena.
func (g *Digraph) Clone() *Digraph {
	c := NewDigraph(g.n)
	copy(c.arena, g.arena)
	return c
}

// Equal reports whether g and h have identical present-node and edge sets.
func (g *Digraph) Equal(h *Digraph) bool {
	if g.n != h.n || !g.present.Equal(h.present) {
		return false
	}
	for i := 0; i < g.n; i++ {
		if !g.out[i].Equal(h.out[i]) {
			return false
		}
	}
	return true
}

// Intersect returns the graph ⟨V ∩ V', E ∩ E'⟩ as in the paper's definition
// of skeleton intersection (footnote 3).
func (g *Digraph) Intersect(h *Digraph) *Digraph {
	if g.n != h.n {
		panic(fmt.Sprintf("graph: intersect over different universes %d and %d", g.n, h.n))
	}
	r := NewDigraph(g.n)
	r.present.CopyFrom(g.present) // same universe: stays inside r's arena slot
	r.present.IntersectWith(h.present)
	r.present.ForEach(func(u int) {
		common := g.out[u].intersect(h.out[u])
		common.IntersectWith(r.present)
		common.ForEach(func(v int) { r.AddEdge(u, v) })
	})
	return r
}

// IntersectWith replaces g by g ∩ h in place and reports whether g changed.
// This is the hot operation of skeleton maintenance (E^∩r = ⋂ E^r'); it
// works word-by-word on the bitsets and allocates nothing.
func (g *Digraph) IntersectWith(h *Digraph) bool {
	if g.n != h.n {
		panic(fmt.Sprintf("graph: intersect over different universes %d and %d", g.n, h.n))
	}
	changed := false
	// Drop nodes absent from h, with their incident edges.
	for i := range g.present.words {
		var hw uint64
		if i < len(h.present.words) {
			hw = h.present.words[i]
		}
		rem := g.present.words[i] &^ hw
		for rem != 0 {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << b
			g.removeNode(i*wordBits + b)
			changed = true
		}
	}
	// Drop edges absent from h.
	for u := g.present.next(0); u >= 0; u = g.present.next(u + 1) {
		ow := g.out[u].words
		hw := h.out[u].words
		for i := range ow {
			var hwi uint64
			if i < len(hw) {
				hwi = hw[i]
			}
			extra := ow[i] &^ hwi
			for extra != 0 {
				b := bits.TrailingZeros64(extra)
				extra &^= 1 << b
				g.RemoveEdge(u, i*wordBits+b)
				changed = true
			}
		}
	}
	return changed
}

// InducedSubgraph returns the subgraph induced by keep ∩ present nodes.
func (g *Digraph) InducedSubgraph(keep NodeSet) *Digraph {
	r := NewDigraph(g.n)
	kept := g.present.intersect(keep)
	kept.ForEach(func(v int) { r.AddNode(v) })
	kept.ForEach(func(u int) {
		g.out[u].ForEach(func(v int) {
			if kept.Has(v) {
				r.AddEdge(u, v)
			}
		})
	})
	return r
}

// SubgraphOf reports whether g ⊆ h (node- and edge-wise).
func (g *Digraph) SubgraphOf(h *Digraph) bool {
	if g.n != h.n || !g.present.SubsetOf(h.present) {
		return false
	}
	ok := true
	g.present.ForEach(func(u int) {
		if !g.out[u].SubsetOf(h.out[u]) {
			ok = false
		}
	})
	return ok
}

// String renders the graph as a deterministic adjacency list, e.g.
// "p1->{p2}; p2->{p1,p3}".
func (g *Digraph) String() string {
	var parts []string
	g.present.ForEach(func(u int) {
		targets := make([]string, 0, g.out[u].Len())
		g.out[u].ForEach(func(v int) { targets = append(targets, fmt.Sprintf("p%d", v+1)) })
		sort.Strings(targets)
		parts = append(parts, fmt.Sprintf("p%d->{%s}", u+1, strings.Join(targets, ",")))
	})
	return strings.Join(parts, "; ")
}

func (g *Digraph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of universe [0,%d)", v, g.n))
	}
}
