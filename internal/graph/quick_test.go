package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genGraph is a quick.Generator-compatible random digraph wrapper.
type genGraph struct {
	G *Digraph
}

// Generate implements quick.Generator.
func (genGraph) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(9)
	g := NewDigraph(n)
	for v := 0; v < n; v++ {
		if r.Intn(4) > 0 {
			g.AddNode(v)
		}
	}
	g.Nodes().ForEach(func(u int) {
		g.Nodes().ForEach(func(v int) {
			if r.Float64() < 0.3 {
				g.AddEdge(u, v)
			}
		})
	})
	return reflect.ValueOf(genGraph{G: g})
}

// pad lifts two graphs onto a common universe so binary ops are legal.
func pad(a, b *Digraph) (*Digraph, *Digraph) {
	n := a.N()
	if b.N() > n {
		n = b.N()
	}
	lift := func(g *Digraph) *Digraph {
		out := NewDigraph(n)
		g.Nodes().ForEach(func(v int) { out.AddNode(v) })
		for _, e := range g.Edges() {
			out.AddEdge(e.From, e.To)
		}
		return out
	}
	return lift(a), lift(b)
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(w genGraph) bool {
		return w.G.transpose().transpose().Equal(w.G)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectCommutative(t *testing.T) {
	f := func(wa, wb genGraph) bool {
		a, b := pad(wa.G, wb.G)
		return a.Intersect(b).Equal(b.Intersect(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectIsLowerBound(t *testing.T) {
	f := func(wa, wb genGraph) bool {
		a, b := pad(wa.G, wb.G)
		i := a.Intersect(b)
		return i.SubgraphOf(a) && i.SubgraphOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(w genGraph) bool {
		c := w.G.Clone()
		if !c.Equal(w.G) {
			return false
		}
		// Mutating the clone must not affect the original.
		c.Nodes().ForEach(func(v int) { c.removeNode(v) })
		return c.numNodes() == 0 && w.G.Equal(w.G.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSCCPartition(t *testing.T) {
	f := func(w genGraph) bool {
		comps := SCC(w.G)
		seen := NewNodeSet(w.G.N())
		for _, c := range comps {
			if c.Len() == 0 || seen.Intersects(c) {
				return false
			}
			seen.UnionWith(c)
		}
		return seen.Equal(w.G.Nodes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCondensationAcyclic(t *testing.T) {
	f := func(w genGraph) bool {
		return isDAG(condense(w.G).DAG)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReachabilityTransitive(t *testing.T) {
	f := func(w genGraph) bool {
		g := w.G
		ok := true
		g.Nodes().ForEach(func(u int) {
			ru := reachable(g, u)
			ru.ForEach(func(v int) {
				if !reachable(g, v).SubsetOf(ru) {
					ok = false
				}
			})
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// genLabeled generates random labeled graphs for merge-law checks.
type genLabeled struct {
	G *Labeled
}

// Generate implements quick.Generator.
func (genLabeled) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(8)
	g := NewLabeled(n)
	for i := 0; i < r.Intn(20); i++ {
		g.MergeEdge(r.Intn(n), r.Intn(n), 1+r.Intn(30))
	}
	return reflect.ValueOf(genLabeled{G: g})
}

func TestQuickLabeledMergeIdempotent(t *testing.T) {
	f := func(w genLabeled) bool {
		c := w.G.Clone()
		w.G.ForEachEdge(func(u, v, l int) { c.MergeEdge(u, v, l) })
		return c.Equal(w.G)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLabeledPurgeMonotone(t *testing.T) {
	f := func(w genLabeled, rawT uint8) bool {
		threshold := int(rawT % 32)
		c := w.G.Clone()
		removed := c.PurgeOlderThan(threshold)
		if removed != w.G.NumEdges()-c.NumEdges() {
			return false
		}
		ok := true
		c.ForEachEdge(func(_, _, l int) {
			if l <= threshold {
				ok = false
			}
		})
		// Purging again is a no-op.
		return ok && c.PurgeOlderThan(threshold) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLabeledUnlabeledPreservesStructure(t *testing.T) {
	f := func(w genLabeled) bool {
		d := w.G.Unlabeled()
		if d.NumEdges() != w.G.NumEdges() || !d.Nodes().Equal(w.G.Nodes()) {
			return false
		}
		ok := true
		w.G.ForEachEdge(func(u, v, _ int) {
			if !d.HasEdge(u, v) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
