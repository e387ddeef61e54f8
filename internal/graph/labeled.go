package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// maxLabel is the largest edge label Labeled stores. Labels are round
// numbers; a label beyond 2^31-1 would mean a run of two billion rounds
// and almost certainly indicates a caller bug, so MergeEdge rejects it
// loudly instead of truncating (labels are stored as int32 to halve the
// matrix footprint at large n).
const maxLabel = math.MaxInt32

// Labeled is a round-labeled digraph over the universe 0..n-1: the
// weighted approximation graph G_p of Algorithm 1. Invariant (paper
// Lemma 3(c) / Lemma 4(b)): at most one label per ordered node pair, and
// merging keeps the maximum label ever seen. Labels are >= 1; 0 means "no
// edge".
//
// It is a Digraph plus labels: shadow is the paper's "unweighted version
// of G_p" — shadow.out[u] holds bit v and shadow.in[v] holds bit u exactly
// when labels[u*n+v] != 0 — and labels is the dense matrix beside it.
// The shadow makes every structural kernel word-parallel and
// edge-proportional (merge, purge, reachability and prune walk 64 node
// pairs per machine word instead of one matrix cell at a time), which is
// what lets the per-round rebuild scale past n = 64 (DESIGN.md §8), and
// reachability, prune and the decision test are the Digraph's own
// kernels. Labeled touches shadow rows only through the non-growing
// set/unset, so they never leave the arena. Edges exist only between
// present nodes: MergeEdge adds both endpoints, removeNode clears its row
// and column.
type Labeled struct {
	shadow Digraph
	m      int     // edge count, maintained incrementally (= total bits in shadow.out)
	labels []int32 // n*n row-major; labels[u*n+v] = label of u->v, 0 if absent
}

// NewLabeled returns an empty labeled graph over the universe 0..n-1.
func NewLabeled(n int) *Labeled {
	return &Labeled{shadow: makeDigraph(n), labels: make([]int32, n*n)}
}

// N returns the universe size.
func (g *Labeled) N() int { return g.shadow.n }

// dense reports whether the graph is dense enough (>= 25% of all ordered
// pairs labeled) that flat whole-matrix kernels beat the shadow-guided
// edge-proportional ones. Complete-graph rounds — the decided steady
// state of Algorithm 1 on a stable skeleton — sit firmly on the flat
// side; large sparse approximations (E20's hub skeletons) on the other.
// There is deliberately no tier between the two (DESIGN.md §8).
func (g *Labeled) dense() bool { return 4*g.m >= g.shadow.n*g.shadow.n }

// Reset empties the graph in place, retaining allocated storage; used by
// the per-round rebuild (Algorithm 1 line 15). Dense graphs take one
// flat clear of the label matrix and the bitset arena; sparse graphs
// touch only rows and columns of present nodes (absent nodes have none
// by invariant), costing O(present·words + edges), not O(n²).
func (g *Labeled) Reset() {
	sh := &g.shadow
	if g.dense() {
		clear(g.labels)
		clear(sh.arena)
		g.m = 0
		return
	}
	for u := sh.present.next(0); u >= 0; u = sh.present.next(u + 1) {
		row := sh.out[u].words
		base := u * sh.n
		for i, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				g.labels[base+i*wordBits+b] = 0
			}
			row[i] = 0
		}
		sh.in[u].Clear()
	}
	sh.present.Clear()
	g.m = 0
}

// AddNode marks v present.
func (g *Labeled) AddNode(v int) {
	g.shadow.check(v)
	g.shadow.present.set(v)
}

// HasNode reports whether v is present.
func (g *Labeled) HasNode(v int) bool { return g.shadow.HasNode(v) }

// Nodes returns a copy of the present-node set.
func (g *Labeled) Nodes() NodeSet { return g.shadow.Nodes() }

// removeNode removes v and all incident edges in O(degree) time: the bit
// shadows name exactly the label cells to clear, so no row or column scan
// is needed.
func (g *Labeled) removeNode(v int) {
	sh := &g.shadow
	sh.check(v)
	if !sh.present.Has(v) {
		return
	}
	g.m -= sh.out[v].Len() + sh.in[v].Len()
	if sh.out[v].Has(v) {
		g.m++ // the self-loop sits in both shadows but is one edge
	}
	row := sh.out[v].words
	base := v * sh.n
	for i, w := range row {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			t := i*wordBits + b
			g.labels[base+t] = 0
			sh.in[t].unset(v)
		}
		row[i] = 0
	}
	col := sh.in[v].words
	for i, w := range col {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			s := i*wordBits + b
			g.labels[s*sh.n+v] = 0
			sh.out[s].unset(v)
		}
		col[i] = 0
	}
	sh.present.unset(v)
}

// MergeEdge merges the edge u --label--> v keeping the maximum label for
// the pair (the paper's lines 19-23 collapsed: R_{i,j} max-merge). Both
// endpoints become present. It reports whether the stored label changed.
func (g *Labeled) MergeEdge(u, v, label int) bool {
	sh := &g.shadow
	sh.check(u)
	sh.check(v)
	if label <= 0 {
		panic(fmt.Sprintf("graph: non-positive label %d", label))
	}
	if label > maxLabel {
		panic(fmt.Sprintf("graph: label %d exceeds MaxLabel %d", label, maxLabel))
	}
	sh.present.set(u)
	sh.present.set(v)
	if int32(label) > g.labels[u*sh.n+v] {
		if g.labels[u*sh.n+v] == 0 {
			sh.out[u].set(v)
			sh.in[v].set(u)
			g.m++
		}
		g.labels[u*sh.n+v] = int32(label)
		return true
	}
	return false
}

// Label returns the label of u->v, or 0 if the edge is absent.
func (g *Labeled) Label(u, v int) int {
	n := g.shadow.n
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0
	}
	return int(g.labels[u*n+v])
}

// HasEdge reports whether the edge u->v is present.
func (g *Labeled) HasEdge(u, v int) bool { return g.Label(u, v) != 0 }

// NumEdges returns the number of labeled edges (self-loops included),
// maintained incrementally so the density dispatch and callers pay O(1).
func (g *Labeled) NumEdges() int { return g.m }

// ForEachEdge calls fn for every labeled edge in (from, to) order. The
// row shadows word-skip the empty part of the matrix, so the walk is
// proportional to the edge count, not n².
func (g *Labeled) ForEachEdge(fn func(u, v, label int)) {
	sh := &g.shadow
	for u := sh.present.next(0); u >= 0; u = sh.present.next(u + 1) {
		base := u * sh.n
		for i, w := range sh.out[u].words {
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
func (g *Labeled) ForEachNode(fn func(v int)) { g.shadow.present.ForEach(fn) }

// MergeFrom merges every node and edge of src into g, keeping the maximum
// label per ordered pair: Algorithm 1 lines 18-23 for one received graph.
// A dense src takes the flat path — one element-wise max over the label
// matrices plus one word-parallel OR of the whole bitset arena (nodes and
// both shadows merge by union) — the branch-predictable scan that wins on
// complete-graph rounds. A sparse src is walked edge-proportionally
// through its row shadows: O(src present·words + src edges), not O(n²).
// Either way it allocates nothing.
func (g *Labeled) MergeFrom(src *Labeled) {
	sh, ssh := &g.shadow, &src.shadow
	n := sh.n
	if n != ssh.n {
		panic(fmt.Sprintf("graph: MergeFrom universe mismatch %d vs %d", n, ssh.n))
	}
	if src.dense() {
		da := sh.arena[:len(ssh.arena)]
		for i, w := range ssh.arena { // present + both shadows: union is OR
			da[i] |= w
		}
		words := len(sh.present.words)
		m := 0
		for _, w := range da[words : (1+n)*words] { // recount from the row shadows
			m += bits.OnesCount64(w)
		}
		g.m = m
		// Branch-free on purpose. In a complete-graph round source q is
		// fresher than the merge so far in column q only, so a conditional
		// store fires once per row; whether the predictor learns that
		// period-n pattern depended on where the loop landed in the
		// binary (0.43 or 0.9 ns/cell for the same instructions at n=32).
		// The conditional move costs 0.5 wherever it lands.
		dl := g.labels[:len(src.labels)]
		for i, l := range src.labels {
			dl[i] = max(dl[i], l)
		}
		return
	}
	sh.present.UnionWith(ssh.present)
	for u := ssh.present.next(0); u >= 0; u = ssh.present.next(u + 1) {
		drow := sh.out[u].words
		base := u * n
		sl := src.labels[base : base+n]
		dl := g.labels[base : base+n]
		for i, w := range ssh.out[u].words {
			drow[i] |= w
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				v := i*wordBits + b
				if sl[v] > dl[v] {
					if dl[v] == 0 {
						sh.in[v].set(u)
						g.m++
					}
					dl[v] = sl[v]
				}
			}
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
	t32 := int32(maxLabel)
	if threshold < maxLabel {
		t32 = int32(threshold)
	}
	sh := &g.shadow
	removed := 0
	if g.dense() {
		// Flat path: one predictable scan of the whole matrix. In the
		// decided steady state every label is fresh, so this is a pure
		// read pass; the per-edge shadow repair runs only on removal.
		for i, l := range g.labels {
			if l != 0 && l <= t32 {
				u, v := i/sh.n, i%sh.n
				g.labels[i] = 0
				sh.out[u].unset(v)
				sh.in[v].unset(u)
				removed++
			}
		}
		g.m -= removed
		return removed
	}
	for u := sh.present.next(0); u >= 0; u = sh.present.next(u + 1) {
		row := sh.out[u].words
		base := u * sh.n
		for i, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				v := i*wordBits + b
				if g.labels[base+v] <= t32 {
					g.labels[base+v] = 0
					row[i] &^= 1 << b
					sh.in[v].unset(u)
					removed++
				}
			}
		}
	}
	g.m -= removed
	return removed
}

// Unlabeled returns the plain digraph with the same present nodes and
// edges (labels dropped): the paper's "unweighted version of G_p" used for
// the subgraph relations in Section IV-A. It is a copy of the shadow;
// mutating it leaves g unchanged.
func (g *Labeled) Unlabeled() *Digraph { return g.shadow.Clone() }

// PruneUnreachableToInPlace removes every node (and incident edges) from
// which p is unreachable: Algorithm 1 line 25. p itself is always kept. It
// returns the number of nodes removed. Reverse reachability from p is the
// shadow's backward walk, the dead set is one word-level AND-NOT against
// the present bitset, and each removal is O(degree); with a warm scratch
// it allocates nothing.
func (g *Labeled) PruneUnreachableToInPlace(p int, s *ReachScratch) int {
	sh := &g.shadow
	sh.check(p)
	sh.present.set(p)
	seen := s.walk(sh.in, p)
	removed := 0
	for i, word := range sh.present.words {
		dead := word &^ seen.words[i]
		for dead != 0 {
			b := bits.TrailingZeros64(dead)
			dead &^= 1 << b
			g.removeNode(i*wordBits + b)
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
	return g.shadow.stronglyConnected(&s)
}

// StronglyConnectedInto is StronglyConnected with caller-owned scratch;
// steady-state calls allocate nothing.
func (g *Labeled) StronglyConnectedInto(s *ReachScratch) bool {
	return g.shadow.stronglyConnected(s)
}

// Clone returns a deep copy.
func (g *Labeled) Clone() *Labeled {
	c := NewLabeled(g.shadow.n)
	c.CopyFrom(g)
	return c
}

// CopyFrom overwrites g with the contents of src (same universe
// required), reusing the receiver's arena and label matrix so repeated
// copies allocate nothing. The whole bitset arena (present + both
// shadows) is one flat copy.
func (g *Labeled) CopyFrom(src *Labeled) {
	if g.shadow.n != src.shadow.n {
		panic(fmt.Sprintf("graph: CopyFrom universe mismatch %d vs %d", g.shadow.n, src.shadow.n))
	}
	copy(g.shadow.arena, src.shadow.arena)
	copy(g.labels, src.labels)
	g.m = src.m
}

// Equal reports whether g and h have the same nodes, edges, and labels.
func (g *Labeled) Equal(h *Labeled) bool {
	if g.shadow.n != h.shadow.n || !g.shadow.present.Equal(h.shadow.present) {
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
		parts = append(parts, fmt.Sprintf("p%d-%d->p%d", u+1, l, v+1))
	})
	if len(parts) == 0 {
		return fmt.Sprintf("(nodes %s, no edges)", g.shadow.present.String())
	}
	return strings.Join(parts, ", ")
}
