package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// maxLabel is the largest edge label Labeled stores. Labels are round
// numbers; a label beyond 2^31-1 would mean a run of two billion rounds
// and almost certainly indicates a caller bug, so MergeEdge rejects it
// loudly instead of truncating.
const maxLabel = math.MaxInt32

// An edge u->v is stored as the key u<<keyShift | v, so ascending keys
// are (from, to) order; the universe is therefore at most 1<<keyShift.
const keyShift, keyMask = 16, 1<<16 - 1

func edgeKey(u, v int) uint32 { return uint32(u)<<keyShift | uint32(v) }

// Labeled is a round-labeled digraph over the universe 0..n-1: the
// weighted approximation graph G_p of Algorithm 1. Invariant (paper
// Lemma 3(c) / Lemma 4(b)): at most one label per ordered node pair, and
// merging keeps the maximum label ever seen. Labels are >= 1; 0 means "no
// edge".
//
// It is a Digraph plus a sorted edge list: shadow is the paper's
// "unweighted version of G_p" — shadow.out[u] holds bit v and
// shadow.in[v] holds bit u exactly when keys holds edgeKey(u, v) — and
// labels[i] is the label of keys[i], keys ascending. A purged and pruned
// G_p holds O(n) edges, so storage is O(n²/64 + E), every label kernel is
// a pass over edge lists, and reachability, prune and the decision test
// stay the shadow's word-parallel walks (DESIGN.md §8). Edges exist only
// between present nodes.
type Labeled struct {
	shadow                 Digraph
	keys, labels           []uint32
	spareKeys, spareLabels []uint32
}

// NewLabeled returns an empty labeled graph over the universe 0..n-1.
func NewLabeled(n int) *Labeled {
	if n > 1<<keyShift {
		panic(fmt.Sprintf("graph: universe %d exceeds %d", n, 1<<keyShift))
	}
	g := &Labeled{shadow: makeDigraph(n)}
	g.grow(4 * n)
	return g
}

// grow makes room for need edges (at most n², as keys are distinct) in
// keys, labels and their merge spares: four equal slots of one
// allocation, the edges kept. Reset keeps the capacity, so a graph grows
// to its run's size once and then allocates nothing.
func (g *Labeled) grow(need int) {
	if c := cap(g.keys); need > c {
		c = min(g.shadow.n*g.shadow.n, max(2*c, need))
		buf := make([]uint32, 4*c)
		g.keys = append(buf[0:0:c], g.keys...)
		g.labels = append(buf[c:c:2*c], g.labels...)
		g.spareKeys, g.spareLabels = buf[2*c:2*c:3*c], buf[3*c:3*c:4*c]
	}
}

// N returns the universe size.
func (g *Labeled) N() int { return g.shadow.n }

// dense reports whether the graph is dense enough (>= 25% of all ordered
// pairs labeled) that whole-arena bitset passes beat per-edge bit
// updates: complete-graph rounds are, E20's hub skeletons are not.
func (g *Labeled) dense() bool { return 4*len(g.keys) >= g.shadow.n*g.shadow.n }

// setBits sets edge k's two shadow bits.
func (g *Labeled) setBits(k uint32) {
	u, v := int(k>>keyShift), int(k&keyMask)
	g.shadow.out[u].set(v)
	g.shadow.in[v].set(u)
}

// Reset empties the graph in place, retaining allocated storage; used by
// the per-round rebuild (Algorithm 1 line 15). Labels are never written:
// a dense graph clears the whole bitset arena, a sparse one zeroes the
// two shadow words of each edge, O(edges + n/64).
func (g *Labeled) Reset() {
	sh := &g.shadow
	if g.dense() {
		clear(sh.arena)
	} else {
		for _, k := range g.keys {
			u, v := int(k>>keyShift), int(k&keyMask)
			sh.out[u].words[v/wordBits] = 0
			sh.in[v].words[u/wordBits] = 0
		}
		sh.present.Clear()
	}
	g.keys, g.labels = g.keys[:0], g.labels[:0]
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

// MergeEdge merges the edge u --label--> v keeping the maximum label for
// the pair (the paper's lines 19-23 collapsed: R_{i,j} max-merge). Both
// endpoints become present. It reports whether the stored label changed.
// An edge past the last key appends; any other new edge is an insertion.
func (g *Labeled) MergeEdge(u, v, label int) bool {
	sh := &g.shadow
	sh.check(u)
	sh.check(v)
	if label <= 0 || label > maxLabel {
		panic(fmt.Sprintf("graph: label %d outside [1, %d]", label, maxLabel))
	}
	sh.present.set(u)
	sh.present.set(v)
	k, l, e, i := edgeKey(u, v), uint32(label), len(g.keys), len(g.keys)
	if sh.out[u].Has(v) {
		var i int
		if c := sh.present.Len(); e == c*c { // complete: row-major over the present nodes
			i = sh.present.rank(u)*c + sh.present.rank(v)
		} else {
			i, _ = slices.BinarySearch(g.keys, k)
		}
		if l <= g.labels[i] {
			return false
		}
		g.labels[i] = l
		return true
	}
	if e > 0 && g.keys[e-1] > k {
		i, _ = slices.BinarySearch(g.keys, k)
	}
	if e == cap(g.keys) {
		g.grow(e + 1)
	}
	g.keys, g.labels = append(g.keys, k), append(g.labels, l)
	if i < e { // an insertion, not an append
		copy(g.keys[i+1:], g.keys[i:e])
		copy(g.labels[i+1:], g.labels[i:e])
		g.keys[i], g.labels[i] = k, l
	}
	g.setBits(k)
	return true
}

// Label returns the label of u->v, or 0 if the edge is absent.
func (g *Labeled) Label(u, v int) int {
	n := g.shadow.n
	if u < 0 || u >= n || v < 0 || v >= n || !g.shadow.out[u].Has(v) {
		return 0
	}
	i, _ := slices.BinarySearch(g.keys, edgeKey(u, v))
	return int(g.labels[i])
}

// HasEdge reports whether the edge u->v is present.
func (g *Labeled) HasEdge(u, v int) bool { return g.Label(u, v) != 0 }

// NumEdges returns the number of labeled edges (self-loops included).
func (g *Labeled) NumEdges() int { return len(g.keys) }

// ForEachEdge calls fn for every labeled edge in (from, to) order.
func (g *Labeled) ForEachEdge(fn func(u, v, label int)) {
	for i, k := range g.keys {
		fn(int(k>>keyShift), int(k&keyMask), int(g.labels[i]))
	}
}

// ForEachNode calls fn for every present node in ascending order.
func (g *Labeled) ForEachNode(fn func(v int)) { g.shadow.present.ForEach(fn) }

// MergeFrom merges every node and edge of src into g, keeping the maximum
// label per ordered pair: Algorithm 1 lines 18-23 for one received graph.
// Two graphs complete on the same node set share their keys, so it is a
// max over the labels; otherwise it merges the two sorted lists into the
// spare slots, which swap in (into an edgeless g, a copy). The shadow
// gains the bits of new edges, or src's whole arena when dense.
func (g *Labeled) MergeFrom(src *Labeled) {
	sh, ssh := &g.shadow, &src.shadow
	if sh.n != ssh.n {
		panic(fmt.Sprintf("graph: MergeFrom universe mismatch %d vs %d", sh.n, ssh.n))
	}
	a, al, b, bl := g.keys, g.labels, src.keys, src.labels
	if len(a) == len(b) && len(a) == sh.present.Len()*sh.present.Len() && sh.present.Equal(ssh.present) {
		// Branch-free (a compare-and-store swung 2× with code placement)
		// and four labels a trip (one a trip ran ~30 % slower).
		al, i := al[:len(bl)], 0
		for ; i+4 <= len(bl); i += 4 {
			x, y := al[i:i+4:i+4], bl[i:i+4:i+4]
			x[0], x[1], x[2], x[3] = max(x[0], y[0]), max(x[1], y[1]), max(x[2], y[2]), max(x[3], y[3])
		}
		for ; i < len(bl); i++ {
			al[i] = max(al[i], bl[i])
		}
		return
	}
	flat := src.dense()
	if flat {
		for i, w := range ssh.arena { // present + both shadows: union is OR
			sh.arena[i] |= w
		}
	} else {
		sh.present.UnionWith(ssh.present)
	}
	g.grow(min(sh.n*sh.n, len(a)+len(b)))
	a, al = g.keys, g.labels
	out, ol := g.spareKeys[:cap(g.spareKeys)], g.spareLabels[:cap(g.spareLabels)]
	i, j, e := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch ka, kb := a[i], b[j]; {
		case ka < kb:
			out[e], ol[e] = ka, al[i]
			i++
		case ka > kb:
			out[e], ol[e] = kb, bl[j]
			if !flat {
				g.setBits(kb)
			}
			j++
		default:
			out[e], ol[e] = ka, max(al[i], bl[j])
			i++
			j++
		}
		e++
	}
	if !flat {
		for _, k := range b[j:] {
			g.setBits(k)
		}
	}
	copy(ol[e:], al[i:])
	e += copy(out[e:], a[i:])
	copy(ol[e:], bl[j:])
	e += copy(out[e:], b[j:])
	g.keys, g.spareKeys = out[:e], a[:0]
	g.labels, g.spareLabels = ol[:e], al[:0]
}

// PurgeOlderThan removes every edge with label <= threshold: Algorithm 1
// line 24 with threshold = r - n. It returns the number of edges removed.
// It is one compaction of the edge list, and a pure read pass when
// nothing is stale.
func (g *Labeled) PurgeOlderThan(threshold int) int {
	if threshold < 1 {
		return 0
	}
	t := uint32(min(threshold, maxLabel))
	keys, labels, j := g.keys, g.labels, 0
	for j < len(labels) && labels[j] > t {
		j++ // the fresh prefix stays put
	}
	for i := j; i < len(keys); i++ {
		if l := labels[i]; l > t {
			keys[j], labels[j] = keys[i], l
			j++
		} else {
			u, v := int(keys[i]>>keyShift), int(keys[i]&keyMask)
			g.shadow.out[u].unset(v)
			g.shadow.in[v].unset(u)
		}
	}
	removed := len(keys) - j
	g.keys, g.labels = keys[:j], labels[:j]
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
// shadow's backward walk; each dead node leaves the shadow in O(degree),
// and the edge list is one compaction: an edge u->v stays exactly when v
// reaches p, as u then does too. With a warm scratch it allocates
// nothing.
func (g *Labeled) PruneUnreachableToInPlace(p int, s *ReachScratch) int {
	sh := &g.shadow
	sh.check(p)
	sh.present.set(p)
	seen := s.walk(sh, true, p)
	removed := 0
	for i, w := range sh.present.words {
		for dead := w &^ seen.words[i]; dead != 0; dead &= dead - 1 {
			d := i*wordBits + bits.TrailingZeros64(dead)
			// d's sources lose their edge to d; its targets are dead too,
			// and their in rows clear in turn.
			for x, w := range sh.in[d].words {
				for ; w != 0; w &= w - 1 {
					sh.out[x*wordBits+bits.TrailingZeros64(w)].unset(d)
				}
			}
			clear(sh.out[d].words)
			clear(sh.in[d].words)
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	sh.present.IntersectWith(seen)
	keys, labels, sw, j := g.keys, g.labels[:len(g.keys)], seen.words, 0
	// Branch-free, as which edges go is unpredictable. One word of seen
	// sits in a register: HotPruneInPlace n = 32/64 read −9/−4 % against
	// the general loop, which reads +11/+6 % over the matrix's prune
	// (medians of 11 alternating pairs each).
	if len(sw) == 1 {
		for i, w := 0, sw[0]; i < len(keys); i++ {
			k := keys[i]
			keys[j], labels[j] = k, labels[i]
			j += int(w >> (k % wordBits) & 1)
		}
	} else {
		for i := range keys {
			k, v := keys[i], keys[i]&keyMask
			keys[j], labels[j] = k, labels[i]
			j += int(sw[v/wordBits] >> (v % wordBits) & 1)
		}
	}
	g.keys, g.labels = keys[:j], labels[:j]
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
// required), reusing the receiver's storage so repeated copies allocate
// nothing: one flat copy of the bitset arena and of the edge list.
func (g *Labeled) CopyFrom(src *Labeled) {
	if g.shadow.n != src.shadow.n {
		panic(fmt.Sprintf("graph: CopyFrom universe mismatch %d vs %d", g.shadow.n, src.shadow.n))
	}
	copy(g.shadow.arena, src.shadow.arena)
	g.grow(len(src.keys))
	g.keys = append(g.keys[:0], src.keys...)
	g.labels = append(g.labels[:0], src.labels...)
}

// Equal reports whether g and h have the same nodes, edges, and labels.
func (g *Labeled) Equal(h *Labeled) bool {
	return g.shadow.n == h.shadow.n && g.shadow.present.Equal(h.shadow.present) &&
		slices.Equal(g.keys, h.keys) && slices.Equal(g.labels, h.labels)
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
