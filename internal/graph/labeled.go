package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// LabeledEdge is a directed edge carrying the round label of the paper's
// approximation graphs: (From --Label--> To) means "To heard From in round
// Label, and no fresher evidence is known".
type LabeledEdge struct {
	From, To, Label int
}

func (e LabeledEdge) String() string {
	return fmt.Sprintf("p%d-%d->p%d", e.From+1, e.Label, e.To+1)
}

// MaxLabel is the largest edge label Labeled stores. Labels are round
// numbers; a label beyond 2^31-1 would mean a run of two billion rounds
// and almost certainly indicates a caller bug, so MergeEdge rejects it
// loudly instead of truncating (labels are stored as int32 to halve the
// matrix footprint at large n).
const MaxLabel = math.MaxInt32

// Labeled is a round-labeled digraph over the universe 0..n-1: the
// weighted approximation graph G_p of Algorithm 1. Invariant (paper
// Lemma 3(c) / Lemma 4(b)): at most one label per ordered node pair, and
// merging keeps the maximum label ever seen. Labels are >= 1; 0 means "no
// edge".
//
// The representation is a dense label matrix plus a pair of bit-matrix
// shadows: out[u] holds bit v and in[v] holds bit u exactly when
// labels[u*n+v] != 0. The shadows make every structural kernel
// word-parallel and edge-proportional — merge, purge, reachability, and
// prune walk 64 node pairs per machine word instead of one matrix cell at
// a time — which is what lets the per-round rebuild scale past n = 64
// (DESIGN.md §8). Edges exist only between present nodes: MergeEdge adds
// both endpoints, RemoveNode clears its row and column.
type Labeled struct {
	n       int
	m       int // edge count, maintained incrementally (len of the shadow union)
	present NodeSet
	out     []NodeSet // row shadows: out[u] = {v : labels[u*n+v] != 0}
	in      []NodeSet // column shadows: in[v] = {u : labels[u*n+v] != 0}
	labels  []int32   // n*n row-major; labels[u*n+v] = label of u->v, 0 if absent
	arena   []uint64  // flat backing store of present + out + in
}

// NewLabeled returns an empty labeled graph over the universe 0..n-1. All
// 2n+1 bitsets (present, out, in) share one flat arena, as in NewDigraph;
// the full-capacity reslices confine each set to its arena slot.
func NewLabeled(n int) *Labeled {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative universe size %d", n))
	}
	words := (n + wordBits - 1) / wordBits
	sets := make([]NodeSet, 2*n)
	arena := make([]uint64, (2*n+1)*words)
	g := &Labeled{
		n:       n,
		present: NodeSet{words: arena[0:words:words]},
		out:     sets[:n:n],
		in:      sets[n:],
		labels:  make([]int32, n*n),
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

// N returns the universe size.
func (g *Labeled) N() int { return g.n }

// denseWordCut is the popcount above which the sparse matrix kernels
// switch from per-bit extraction to a straight scan of the word's 64
// label cells. Per-bit costs a TrailingZeros + branch per edge; the
// linear scan costs one predictable pass the hardware prefetches, so it
// wins once a word is mostly full while sparse words keep the O(edges)
// walk.
const denseWordCut = 16

// dense reports whether the graph is dense enough (>= 25% of all ordered
// pairs labeled) that flat whole-matrix kernels beat the shadow-guided
// edge-proportional ones. Complete-graph rounds — the decided steady
// state of Algorithm 1 on a stable skeleton — sit firmly on the flat
// side; large sparse approximations (E20's hub skeletons) on the other.
func (g *Labeled) dense() bool { return 4*g.m >= g.n*g.n }

// Reset empties the graph in place, retaining allocated storage; used by
// the per-round rebuild (Algorithm 1 line 15). Dense graphs take one
// flat clear of the label matrix and the bitset arena; sparse graphs
// touch only rows and columns of present nodes (absent nodes have none
// by invariant), costing O(present·words + edges), not O(n²).
func (g *Labeled) Reset() {
	if g.dense() {
		clear(g.labels)
		clear(g.arena)
		g.m = 0
		return
	}
	for u := g.present.Next(0); u >= 0; u = g.present.Next(u + 1) {
		row := g.out[u].words
		base := u * g.n
		for i, w := range row {
			if w == 0 {
				continue
			}
			if bits.OnesCount64(w) >= denseWordCut {
				lo := i * wordBits
				hi := min(lo+wordBits, g.n)
				clear(g.labels[base+lo : base+hi])
			} else {
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &^= 1 << b
					g.labels[base+i*wordBits+b] = 0
				}
			}
			row[i] = 0
		}
		g.in[u].Clear()
	}
	g.present.Clear()
	g.m = 0
}

// AddNode marks v present.
func (g *Labeled) AddNode(v int) {
	g.check(v)
	g.present.set(v)
}

// HasNode reports whether v is present.
func (g *Labeled) HasNode(v int) bool { return g.present.Has(v) }

// Nodes returns a copy of the present-node set.
func (g *Labeled) Nodes() NodeSet { return g.present.Clone() }

// NumNodes returns the number of present nodes.
func (g *Labeled) NumNodes() int { return g.present.Len() }

// RemoveNode removes v and all incident edges in O(degree) time: the bit
// shadows name exactly the label cells to clear, so no row or column scan
// is needed.
func (g *Labeled) RemoveNode(v int) {
	g.check(v)
	if !g.present.Has(v) {
		return
	}
	g.m -= g.out[v].Len() + g.in[v].Len()
	if g.out[v].Has(v) {
		g.m++ // the self-loop sits in both shadows but is one edge
	}
	row := g.out[v].words
	base := v * g.n
	for i, w := range row {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			t := i*wordBits + b
			g.labels[base+t] = 0
			g.in[t].unset(v)
		}
		row[i] = 0
	}
	col := g.in[v].words
	for i, w := range col {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			s := i*wordBits + b
			g.labels[s*g.n+v] = 0
			g.out[s].unset(v)
		}
		col[i] = 0
	}
	g.present.unset(v)
}

// MergeEdge merges the edge u --label--> v keeping the maximum label for
// the pair (the paper's lines 19-23 collapsed: R_{i,j} max-merge). Both
// endpoints become present. It reports whether the stored label changed.
func (g *Labeled) MergeEdge(u, v, label int) bool {
	g.check(u)
	g.check(v)
	if label <= 0 {
		panic(fmt.Sprintf("graph: non-positive label %d", label))
	}
	if label > MaxLabel {
		panic(fmt.Sprintf("graph: label %d exceeds MaxLabel %d", label, MaxLabel))
	}
	g.present.set(u)
	g.present.set(v)
	if int32(label) > g.labels[u*g.n+v] {
		if g.labels[u*g.n+v] == 0 {
			g.out[u].set(v)
			g.in[v].set(u)
			g.m++
		}
		g.labels[u*g.n+v] = int32(label)
		return true
	}
	return false
}

// Label returns the label of u->v, or 0 if the edge is absent.
func (g *Labeled) Label(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0
	}
	return int(g.labels[u*g.n+v])
}

// HasEdge reports whether the edge u->v is present.
func (g *Labeled) HasEdge(u, v int) bool { return g.Label(u, v) != 0 }

// NumEdges returns the number of labeled edges (self-loops included),
// maintained incrementally so the density dispatch and callers pay O(1).
func (g *Labeled) NumEdges() int { return g.m }

// Edges returns all labeled edges in deterministic (from, to) order.
func (g *Labeled) Edges() []LabeledEdge {
	out := make([]LabeledEdge, 0, g.NumEdges())
	g.ForEachEdge(func(u, v, l int) {
		out = append(out, LabeledEdge{From: u, To: v, Label: l})
	})
	return out
}

// ForEachEdge calls fn for every labeled edge in (from, to) order. The
// row shadows word-skip the empty part of the matrix, so the walk is
// proportional to the edge count, not n².
func (g *Labeled) ForEachEdge(fn func(u, v, label int)) {
	for u := g.present.Next(0); u >= 0; u = g.present.Next(u + 1) {
		row := g.out[u].words
		base := u * g.n
		for i, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				v := i*wordBits + b
				fn(u, v, int(g.labels[base+v]))
			}
		}
	}
}

// ForEachNode calls fn for every present node in ascending order.
func (g *Labeled) ForEachNode(fn func(v int)) { g.present.ForEach(fn) }

// MergeFrom merges every node and edge of src into g, keeping the maximum
// label per ordered pair: Algorithm 1 lines 18-23 for one received graph.
// A dense src takes the flat path — one element-wise max over the label
// matrices plus one word-parallel OR of the whole bitset arena (nodes and
// both shadows merge by union) — the branch-predictable scan that wins on
// complete-graph rounds. A sparse src is walked edge-proportionally
// through its row shadows: O(src present·words + src edges), not O(n²).
// Either way it allocates nothing.
func (g *Labeled) MergeFrom(src *Labeled) {
	if g.n != src.n {
		panic(fmt.Sprintf("graph: MergeFrom universe mismatch %d vs %d", g.n, src.n))
	}
	if src.dense() {
		da := g.arena[:len(src.arena)]
		for i, w := range src.arena { // present + both shadows: union is OR
			da[i] |= w
		}
		words := len(g.present.words)
		m := 0
		for _, w := range da[words : (1+g.n)*words] { // recount from the row shadows
			m += bits.OnesCount64(w)
		}
		g.m = m
		dl := g.labels[:len(src.labels)]
		for i, l := range src.labels {
			if l > dl[i] {
				dl[i] = l
			}
		}
		return
	}
	g.present.UnionWith(src.present)
	for u := src.present.Next(0); u >= 0; u = src.present.Next(u + 1) {
		srow := src.out[u].words
		drow := g.out[u].words
		base := u * g.n
		sl := src.labels[base : base+g.n]
		dl := g.labels[base : base+g.n]
		for i, w := range srow {
			if w == 0 {
				continue
			}
			if bits.OnesCount64(w) >= denseWordCut {
				// Dense word: linear max-merge over the 64 cells
				// (absent cells have sl[v] == 0, so they never win),
				// with in-shadow updates only for genuinely new edges.
				lo := i * wordBits
				hi := min(lo+wordBits, g.n)
				for v := lo; v < hi; v++ {
					if sl[v] > dl[v] {
						dl[v] = sl[v]
					}
				}
				nw := w &^ drow[i]
				g.m += bits.OnesCount64(nw)
				for nw != 0 {
					b := bits.TrailingZeros64(nw)
					nw &^= 1 << b
					g.in[lo+b].set(u)
				}
			} else {
				for t := w; t != 0; {
					b := bits.TrailingZeros64(t)
					t &^= 1 << b
					v := i*wordBits + b
					if sl[v] > dl[v] {
						if dl[v] == 0 {
							g.in[v].set(u)
							g.m++
						}
						dl[v] = sl[v]
					}
				}
			}
			drow[i] |= w
		}
	}
}

// PurgeOlderThan removes every edge with label <= threshold: Algorithm 1
// line 24 with threshold = r - n. It returns the number of edges removed.
// Labels are >= 1, so thresholds below 1 return immediately; otherwise
// the row shadows restrict the scan to actual edges.
func (g *Labeled) PurgeOlderThan(threshold int) int {
	if threshold < 1 {
		return 0
	}
	t32 := int32(MaxLabel)
	if threshold < MaxLabel {
		t32 = int32(threshold)
	}
	removed := 0
	if g.dense() {
		// Flat path: one predictable scan of the whole matrix. In the
		// decided steady state every label is fresh, so this is a pure
		// read pass; the per-edge shadow repair runs only on removal.
		for i, l := range g.labels {
			if l != 0 && l <= t32 {
				u, v := i/g.n, i%g.n
				g.labels[i] = 0
				g.out[u].unset(v)
				g.in[v].unset(u)
				removed++
			}
		}
		g.m -= removed
		return removed
	}
	for u := g.present.Next(0); u >= 0; u = g.present.Next(u + 1) {
		row := g.out[u].words
		base := u * g.n
		for i, w := range row {
			if w == 0 {
				continue
			}
			if bits.OnesCount64(w) >= denseWordCut {
				lo := i * wordBits
				hi := min(lo+wordBits, g.n)
				for v := lo; v < hi; v++ {
					if l := g.labels[base+v]; l != 0 && l <= t32 {
						g.labels[base+v] = 0
						row[i] &^= 1 << (v - lo)
						g.in[v].unset(u)
						removed++
					}
				}
			} else {
				for t := w; t != 0; {
					b := bits.TrailingZeros64(t)
					t &^= 1 << b
					v := i*wordBits + b
					if g.labels[base+v] <= t32 {
						g.labels[base+v] = 0
						row[i] &^= 1 << b
						g.in[v].unset(u)
						removed++
					}
				}
			}
		}
	}
	g.m -= removed
	return removed
}

// Unlabeled returns the plain digraph with the same present nodes and
// edges (labels dropped): the paper's "unweighted version of G_p" used for
// the subgraph relations in Section IV-A. The bit shadows are copied
// word-wise straight into the digraph's adjacency sets.
func (g *Labeled) Unlabeled() *Digraph {
	d := NewDigraph(g.n)
	d.present.CopyFrom(g.present)
	for i := 0; i < g.n; i++ {
		d.out[i].CopyFrom(g.out[i])
		d.in[i].CopyFrom(g.in[i])
	}
	return d
}

// PruneUnreachableTo removes every node (and incident edges) from which p
// is unreachable: Algorithm 1 line 25. p itself is always kept. It returns
// the number of nodes removed.
func (g *Labeled) PruneUnreachableTo(p int) int {
	var s ReachScratch
	return g.PruneUnreachableToInPlace(p, &s)
}

// PruneUnreachableToInPlace is PruneUnreachableTo with caller-owned
// scratch. Reverse reachability from p runs word-parallel on the column
// shadows, the dead set is one word-level AND-NOT against the present
// bitset, and each removal is O(degree); steady-state calls allocate
// nothing.
func (g *Labeled) PruneUnreachableToInPlace(p int, s *ReachScratch) int {
	g.check(p)
	g.present.set(p)
	g.reverseReachInto(p, s)
	removed := 0
	for i, word := range g.present.words {
		dead := word &^ s.seen.words[i]
		for dead != 0 {
			b := bits.TrailingZeros64(dead)
			dead &^= 1 << b
			g.RemoveNode(i*wordBits + b)
			removed++
		}
	}
	return removed
}

// StronglyConnected reports whether the present nodes form one strongly
// connected component: the decision test of Algorithm 1 line 28. A single
// present node is strongly connected.
func (g *Labeled) StronglyConnected() bool {
	var s ReachScratch
	return g.StronglyConnectedInto(&s)
}

// StronglyConnectedInto is StronglyConnected with caller-owned scratch:
// a forward reachability pass over the row shadows and a backward pass
// over the column shadows from the smallest present node, each compared
// word-wise against the present bitset. Steady-state calls allocate
// nothing.
func (g *Labeled) StronglyConnectedInto(s *ReachScratch) bool {
	first := g.present.Min()
	if first < 0 {
		return false
	}
	// Forward pass: everything first reaches, following rows.
	g.forwardReachInto(first, s)
	if !s.seen.Equal(g.present) {
		return false
	}
	// Backward pass: everything reaching first, following columns.
	g.reverseReachInto(first, s)
	return s.seen.Equal(g.present)
}

// forwardReachInto fills s.seen with every present node reachable from
// start along out-edges. The frontier walk is word-parallel: each popped
// node contributes its whole adjacency row with one AND-NOT + OR per
// word, and only newly seen nodes are pushed.
func (g *Labeled) forwardReachInto(start int, s *ReachScratch) {
	s.reset(g.n)
	s.seen.Add(start)
	s.stack = append(s.stack, start)
	for len(s.stack) > 0 {
		u := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for i, w := range g.out[u].words {
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
}

// reverseReachInto fills s.seen with every present node that reaches
// start, following in-edges. Identical word-parallel frontier walk as
// forwardReachInto, over the column shadows — no strided column scans of
// the label matrix.
func (g *Labeled) reverseReachInto(start int, s *ReachScratch) {
	s.reset(g.n)
	s.seen.Add(start)
	s.stack = append(s.stack, start)
	for len(s.stack) > 0 {
		u := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for i, w := range g.in[u].words {
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
}

// Clone returns a deep copy.
func (g *Labeled) Clone() *Labeled {
	c := NewLabeled(g.n)
	c.CopyFrom(g)
	return c
}

// CopyFrom overwrites g with the contents of src (same universe
// required), reusing the receiver's arena and label matrix so repeated
// copies allocate nothing. The whole bitset arena (present + both
// shadows) is one flat copy.
func (g *Labeled) CopyFrom(src *Labeled) {
	if g.n != src.n {
		panic(fmt.Sprintf("graph: CopyFrom universe mismatch %d vs %d", g.n, src.n))
	}
	copy(g.arena, src.arena)
	copy(g.labels, src.labels)
	g.m = src.m
}

// Equal reports whether g and h have the same nodes, edges, and labels.
func (g *Labeled) Equal(h *Labeled) bool {
	if g.n != h.n || !g.present.Equal(h.present) {
		return false
	}
	for i := range g.labels {
		if g.labels[i] != h.labels[i] {
			return false
		}
	}
	return true
}

// LabelMultiset returns the sorted (descending) multiset of labels of
// non-self-loop edges. The paper's Figure 1 is drawn without self-loops,
// so this is the quantity compared in experiment E1.
func (g *Labeled) LabelMultiset() []int {
	var out []int
	g.ForEachEdge(func(u, v, l int) {
		if u != v {
			out = append(out, l)
		}
	})
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// String renders the labeled edges (self-loops included) deterministically,
// e.g. "p5-3->p6, p4-2->p5".
func (g *Labeled) String() string {
	var parts []string
	g.ForEachEdge(func(u, v, l int) {
		parts = append(parts, LabeledEdge{u, v, l}.String())
	})
	if len(parts) == 0 {
		return fmt.Sprintf("(nodes %s, no edges)", g.present.String())
	}
	return strings.Join(parts, ", ")
}

func (g *Labeled) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of universe [0,%d)", v, g.n))
	}
}
