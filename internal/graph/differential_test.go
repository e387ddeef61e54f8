package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential battery for the width-generic bitset kernels: every
// word-parallel kernel (reach, prune, connectivity, merge, purge, reset,
// removal) is checked bit-for-bit against a deliberately naive
// per-element reference model on seeded random graphs, across widths on
// both sides of every word seam. The reference model is maps and nested
// loops — no bitsets, no shared arenas — so a word-level bug (shifted
// mask, off-by-one at a seam, stale shadow bit) cannot be mirrored by
// the oracle. CI runs this file under -race alongside the rest of the
// package.

// diffWidths crosses every word seam: one below, on, and above 64, 128,
// and the two-word/three-word boundary at 192.
var diffWidths = []int{1, 2, 7, 63, 64, 65, 127, 128, 129, 192}

// refLabeled is the reference model of Labeled: a label map keyed by
// ordered pair plus a presence map.
type refLabeled struct {
	n       int
	present map[int]bool
	labels  map[[2]int]int
}

func newRefLabeled(n int) *refLabeled {
	return &refLabeled{n: n, present: map[int]bool{}, labels: map[[2]int]int{}}
}

func (r *refLabeled) addNode(v int) { r.present[v] = true }

func (r *refLabeled) mergeEdge(u, v, label int) {
	r.present[u] = true
	r.present[v] = true
	if label > r.labels[[2]int{u, v}] {
		r.labels[[2]int{u, v}] = label
	}
}

func (r *refLabeled) removeNode(v int) {
	if !r.present[v] {
		return
	}
	for k := range r.labels {
		if k[0] == v || k[1] == v {
			delete(r.labels, k)
		}
	}
	delete(r.present, v)
}

func (r *refLabeled) reset() {
	r.present = map[int]bool{}
	r.labels = map[[2]int]int{}
}

func (r *refLabeled) purgeOlderThan(threshold int) {
	for k, l := range r.labels {
		if l <= threshold {
			delete(r.labels, k)
		}
	}
}

func (r *refLabeled) mergeFrom(src *refLabeled) {
	for v := range src.present {
		r.present[v] = true
	}
	for k, l := range src.labels {
		if l > r.labels[k] {
			r.labels[k] = l
		}
	}
}

// reachSet runs a per-element DFS over the label map. forward follows
// u->v edges out of the start; !forward follows them backward.
func (r *refLabeled) reachSet(start int, forward bool) map[int]bool {
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for w := 0; w < r.n; w++ {
			if seen[w] {
				continue
			}
			var l int
			if forward {
				l = r.labels[[2]int{u, w}]
			} else {
				l = r.labels[[2]int{w, u}]
			}
			if l != 0 {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

func (r *refLabeled) pruneUnreachableTo(p int) {
	r.present[p] = true
	seen := r.reachSet(p, false)
	for v := range r.present {
		if !seen[v] {
			r.removeNode(v)
		}
	}
}

func (r *refLabeled) stronglyConnected() bool {
	first := -1
	for v := range r.present {
		if first < 0 || v < first {
			first = v
		}
	}
	if first < 0 {
		return false
	}
	fwd := r.reachSet(first, true)
	bwd := r.reachSet(first, false)
	for v := range r.present {
		if !fwd[v] || !bwd[v] {
			return false
		}
	}
	for v := range fwd {
		if !r.present[v] {
			return false
		}
	}
	for v := range bwd {
		if !r.present[v] {
			return false
		}
	}
	return true
}

// checkLabeledInvariants verifies the shadow invariant directly against
// the label matrix: shadow.out[u] has bit v and shadow.in[v] has bit u
// exactly when labels[u*n+v] != 0, edges exist only between present
// nodes, and m counts the shadow's edges.
func checkLabeledInvariants(t *testing.T, g *Labeled) {
	t.Helper()
	sh, n := &g.shadow, g.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			l := g.labels[u*n+v]
			if (l != 0) != sh.out[u].Has(v) {
				t.Fatalf("shadow invariant: labels[%d->%d]=%d but out bit %v", u, v, l, sh.out[u].Has(v))
			}
			if (l != 0) != sh.in[v].Has(u) {
				t.Fatalf("shadow invariant: labels[%d->%d]=%d but in bit %v", u, v, l, sh.in[v].Has(u))
			}
			if l != 0 && (!sh.present.Has(u) || !sh.present.Has(v)) {
				t.Fatalf("edge %d->%d between non-present nodes", u, v)
			}
		}
	}
	if g.m != sh.NumEdges() {
		t.Fatalf("edge counter m = %d, shadow holds %d edges", g.m, sh.NumEdges())
	}
}

// checkLabeledMatchesRef compares the full observable state of g with
// the reference model: presence, every label cell, and the deterministic
// edge enumeration.
func checkLabeledMatchesRef(t *testing.T, g *Labeled, ref *refLabeled) {
	t.Helper()
	if g.NumNodes() != len(ref.present) {
		t.Fatalf("NumNodes = %d, ref %d", g.NumNodes(), len(ref.present))
	}
	if g.NumEdges() != len(ref.labels) {
		t.Fatalf("NumEdges = %d, ref %d", g.NumEdges(), len(ref.labels))
	}
	for v := 0; v < g.N(); v++ {
		if g.HasNode(v) != ref.present[v] {
			t.Fatalf("HasNode(%d) = %v, ref %v", v, g.HasNode(v), ref.present[v])
		}
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if g.Label(u, v) != ref.labels[[2]int{u, v}] {
				t.Fatalf("Label(%d,%d) = %d, ref %d", u, v, g.Label(u, v), ref.labels[[2]int{u, v}])
			}
		}
	}
	prevU, prevV := -1, -1
	g.ForEachEdge(func(u, v, l int) {
		if u < prevU || (u == prevU && v <= prevV) {
			t.Fatalf("ForEachEdge order violated: (%d,%d) after (%d,%d)", u, v, prevU, prevV)
		}
		prevU, prevV = u, v
		if l != ref.labels[[2]int{u, v}] {
			t.Fatalf("ForEachEdge label %d->%d = %d, ref %d", u, v, l, ref.labels[[2]int{u, v}])
		}
	})
}

// checkUnlabeledIsCopy verifies that Unlabeled returns the reference
// model's structure in a graph of its own: emptying the copy and adding an
// edge to it must leave g (checked against ref by the caller right after)
// unchanged.
func checkUnlabeledIsCopy(t *testing.T, g *Labeled, ref *refLabeled) {
	t.Helper()
	d, n := g.Unlabeled(), g.N()
	if d.NumNodes() != len(ref.present) || d.NumEdges() != len(ref.labels) {
		t.Fatalf("Unlabeled has %d nodes %d edges, ref %d and %d", d.NumNodes(), d.NumEdges(), len(ref.present), len(ref.labels))
	}
	for k := range ref.labels {
		if !d.HasEdge(k[0], k[1]) {
			t.Fatalf("Unlabeled lacks edge %d->%d", k[0], k[1])
		}
	}
	for v := 0; v < n; v++ {
		if d.HasNode(v) != ref.present[v] {
			t.Fatalf("Unlabeled HasNode(%d) = %v, ref %v", v, d.HasNode(v), ref.present[v])
		}
		d.RemoveNode(v)
	}
	d.AddEdge(0, n-1)
}

// checkStep is what every battery asserts after every operation.
func checkStep(t *testing.T, step string, g *Labeled, ref *refLabeled) {
	t.Helper()
	if g.StronglyConnected() != ref.stronglyConnected() {
		t.Fatalf("%s: StronglyConnected = %v, ref %v\n%s", step, g.StronglyConnected(), ref.stronglyConnected(), g)
	}
	checkUnlabeledIsCopy(t, g, ref)
	checkLabeledMatchesRef(t, g, ref)
	checkLabeledInvariants(t, g)
}

// TestDifferentialLabeledOps drives Labeled and the reference model
// through identical seeded random operation sequences at every width,
// comparing full state and shadow invariants after each step. The op mix
// covers the entire per-round kernel surface of Algorithm 1's rebuild;
// the merged-in side graph is either a handful of seam edges or wordRows,
// so the receiver moves back and forth across dense()'s 25% line and both
// tiers of every kernel run on it.
func TestDifferentialLabeledOps(t *testing.T) {
	flatMerges, crossings := 0, 0
	for _, n := range diffWidths {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7100 + n)))
			g := NewLabeled(n)
			ref := newRefLabeled(n)
			other := NewLabeled(n)
			refOther := newRefLabeled(n)
			var scratch ReachScratch
			steps := 120
			if n >= 127 {
				steps = 60
			}
			for step := 0; step < steps; step++ {
				wasDense := g.dense()
				switch op := rng.Intn(10); op {
				case 0, 1, 2, 3: // merge a batch of edges, seams included
					for i := 0; i < 1+rng.Intn(8); i++ {
						u, v := seamNode(rng, n), seamNode(rng, n)
						l := 1 + rng.Intn(50)
						g.MergeEdge(u, v, l)
						ref.mergeEdge(u, v, l)
					}
				case 4: // remove a node
					v := seamNode(rng, n)
					g.RemoveNode(v)
					ref.removeNode(v)
				case 5: // purge old labels
					thr := rng.Intn(60) - 5
					g.PurgeOlderThan(thr)
					ref.purgeOlderThan(thr)
				case 6: // rebuild the side graph — a few seam edges, or word-filling rows — and merge it in
					other.Reset()
					refOther.reset()
					if rng.Intn(2) == 0 {
						for i := 0; i < 1+rng.Intn(10); i++ {
							u, v := seamNode(rng, n), seamNode(rng, n)
							l := 1 + rng.Intn(50)
							other.MergeEdge(u, v, l)
							refOther.mergeEdge(u, v, l)
						}
					} else {
						wordRows(rng, n, []int{15, 16, 17, 64}[rng.Intn(4)], other, refOther)
					}
					if n >= 63 && other.dense() {
						flatMerges++
					}
					g.MergeFrom(other)
					ref.mergeFrom(refOther)
				case 7: // prune to a node
					p := seamNode(rng, n)
					g.PruneUnreachableToInPlace(p, &scratch)
					ref.pruneUnreachableTo(p)
				case 8: // add an isolated node
					v := seamNode(rng, n)
					g.AddNode(v)
					ref.addNode(v)
				case 9: // reset
					if rng.Intn(4) == 0 {
						g.Reset()
						ref.reset()
					}
				}
				checkStep(t, fmt.Sprintf("step %d", step), g, ref)
				if n >= 63 && g.dense() != wasDense {
					crossings++
				}
			}
		})
	}
	if flatMerges == 0 || crossings == 0 {
		t.Fatalf("%d flat-tier merges and %d crossings of dense()'s line: the mix no longer reaches both tiers", flatMerges, crossings)
	}
}

// wordRows fills g (and ref) with rows whose every 64-pair word holds
// exactly perWord edges (fewer only where the universe ends inside the
// word), on a random half of the nodes. 16 is the popcount at which a
// deleted middle tier of MergeFrom/Reset/PurgeOlderThan used to switch
// from the per-bit walk to a scan of the word's 64 cells; 15 and 17 are
// its two sides and 64 the full word. Half the rows at 64 per word is a
// 50% graph (flat tier), at 15-17 a 12% one (per-bit tier).
func wordRows(rng *rand.Rand, n, perWord int, g *Labeled, ref *refLabeled) {
	for u := 0; u < n; u++ {
		if rng.Intn(2) == 0 {
			continue
		}
		for lo := 0; lo < n; lo += wordBits {
			width := min(wordBits, n-lo)
			for _, b := range rng.Perm(width)[:min(perWord, width)] {
				l := 1 + rng.Intn(50)
				g.MergeEdge(u, lo+b, l)
				ref.mergeEdge(u, lo+b, l)
			}
		}
	}
}

// seamNode draws a node biased toward word seams: indices within two of
// a multiple of 64 (and the top of the universe) are picked half the
// time, uniform otherwise.
func seamNode(rng *rand.Rand, n int) int {
	if rng.Intn(2) == 0 {
		seams := []int{0, 62, 63, 64, 65, 126, 127, 128, 129, 190, 191, n - 2, n - 1}
		for i := 0; i < len(seams); i++ {
			v := seams[rng.Intn(len(seams))]
			if v >= 0 && v < n {
				return v
			}
		}
	}
	return rng.Intn(n)
}

// refReachable is the per-element reference for the Digraph reachability
// kernels: plain DFS probing HasEdge cell by cell.
func refReachable(g *Digraph, start int, forward bool) map[int]bool {
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for w := 0; w < g.N(); w++ {
			if seen[w] {
				continue
			}
			ok := false
			if forward {
				ok = g.HasEdge(u, w)
			} else {
				ok = g.HasEdge(w, u)
			}
			if ok {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// TestDifferentialDigraphReach checks the word-parallel frontier BFS of
// ReachableInto/NodesReachingInto against the per-element DFS on seeded
// random digraphs at every width.
func TestDifferentialDigraphReach(t *testing.T) {
	for _, n := range diffWidths {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7200 + n)))
			for trial := 0; trial < 20; trial++ {
				g := NewDigraph(n)
				for v := 0; v < n; v++ {
					if rng.Intn(5) > 0 {
						g.AddNode(v)
					}
				}
				edges := 2 * n
				nodes := g.Nodes()
				for i := 0; i < edges; i++ {
					u, v := seamNode(rng, n), seamNode(rng, n)
					if nodes.Has(u) && nodes.Has(v) {
						g.AddEdge(u, v)
					}
				}
				start := g.Nodes().Min()
				if start < 0 {
					continue
				}
				var s ReachScratch
				got := ReachableInto(g, start, &s)
				want := refReachable(g, start, true)
				for v := 0; v < n; v++ {
					if got.Has(v) != want[v] {
						t.Fatalf("trial %d: Reachable(%d).Has(%d) = %v, ref %v", trial, start, v, got.Has(v), want[v])
					}
				}
				got = NodesReachingInto(g, start, &s)
				want = refReachable(g, start, false)
				for v := 0; v < n; v++ {
					if got.Has(v) != want[v] {
						t.Fatalf("trial %d: NodesReaching(%d).Has(%d) = %v, ref %v", trial, start, v, got.Has(v), want[v])
					}
				}
			}
		})
	}
}

// TestDifferentialEmbedding pins width-independence directly: the same
// logical graph run in a 64-node universe and embedded unchanged in a
// 192-node universe (extra nodes absent) must produce identical kernel
// results on the common prefix — decisions about the first 64 nodes may
// not depend on how many empty words trail the bitsets.
func TestDifferentialEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(7300))
	for trial := 0; trial < 30; trial++ {
		small := NewLabeled(64)
		big := NewLabeled(192)
		for i := 0; i < 1+rng.Intn(150); i++ {
			u, v := rng.Intn(64), rng.Intn(64)
			l := 1 + rng.Intn(40)
			small.MergeEdge(u, v, l)
			big.MergeEdge(u, v, l)
		}
		thr := rng.Intn(30)
		if small.PurgeOlderThan(thr) != big.PurgeOlderThan(thr) {
			t.Fatalf("trial %d: purge counts differ", trial)
		}
		p := rng.Intn(64)
		var s ReachScratch
		if small.PruneUnreachableToInPlace(p, &s) != big.PruneUnreachableToInPlace(p, &s) {
			t.Fatalf("trial %d: prune counts differ", trial)
		}
		if small.StronglyConnected() != big.StronglyConnected() {
			t.Fatalf("trial %d: connectivity differs across embedding", trial)
		}
		if small.NumEdges() != big.NumEdges() || small.NumNodes() != big.NumNodes() {
			t.Fatalf("trial %d: edge/node counts differ across embedding", trial)
		}
		for u := 0; u < 64; u++ {
			for v := 0; v < 64; v++ {
				if small.Label(u, v) != big.Label(u, v) {
					t.Fatalf("trial %d: Label(%d,%d) differs across embedding", trial, u, v)
				}
			}
		}
	}
}
