package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// Word-seam battery: NodeSet operations and the shared-arena layouts of
// Digraph and Labeled at every universe width on, just below, and just
// above the 64-bit word boundaries — the classic off-by-one surface of
// a multi-word bitset rewrite.

var boundaryWidths = []int{63, 64, 65, 127, 128, 129, 192}

// seamIndices returns the probe set for width n: both sides of every
// word seam inside [0, n), plus the universe edges.
func seamIndices(n int) []int {
	cand := []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 190, 191, n - 2, n - 1}
	out := make([]int, 0, len(cand))
	seen := map[int]bool{}
	for _, v := range cand {
		if v >= 0 && v < n && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestNodeSetWordBoundaries drives every NodeSet operation against a
// map-based reference at each boundary width, with elements drawn from
// the seam probe set so each word's low and high bits are exercised.
func TestNodeSetWordBoundaries(t *testing.T) {
	for _, n := range boundaryWidths {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7400 + n)))
			probes := seamIndices(n)
			s := NewNodeSet(n)
			ref := map[int]bool{}
			// t deliberately gets a universe one word smaller when
			// possible: mixed word counts are part of the contract
			// ("missing high bits are absent nodes").
			tn := n
			if n > 64 {
				tn = n - 64
			}
			other := NewNodeSet(tn)
			refOther := map[int]bool{}
			for step := 0; step < 300; step++ {
				v := probes[rng.Intn(len(probes))]
				switch rng.Intn(8) {
				case 0:
					s.Add(v)
					ref[v] = true
				case 1:
					s.Remove(v)
					delete(ref, v)
				case 2:
					if v < tn {
						other.Add(v)
						refOther[v] = true
					}
				case 3:
					if v < tn {
						other.Remove(v)
						delete(refOther, v)
					}
				case 4:
					s.UnionWith(other)
					for w := range refOther {
						ref[w] = true
					}
				case 5:
					s.IntersectWith(other)
					for w := range ref {
						if !refOther[w] {
							delete(ref, w)
						}
					}
				case 6:
					s.SubtractWith(other)
					for w := range refOther {
						delete(ref, w)
					}
				case 7:
					s.CopyFrom(other)
					ref = map[int]bool{}
					for w := range refOther {
						ref[w] = true
					}
				}
				// Full-state comparison against the reference.
				if s.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, ref %d", step, s.Len(), len(ref))
				}
				for _, p := range probes {
					if s.Has(p) != ref[p] {
						t.Fatalf("step %d: Has(%d) = %v, ref %v", step, p, s.Has(p), ref[p])
					}
				}
				// Next must agree with a linear scan from every probe.
				for _, p := range probes {
					want := -1
					for w := p; w < n+70; w++ {
						if ref[w] {
							want = w
							break
						}
					}
					if got := s.next(p); got != want {
						t.Fatalf("step %d: Next(%d) = %d, ref %d", step, p, got, want)
					}
				}
				wantMin := -1
				for w := 0; w < n; w++ {
					if ref[w] {
						wantMin = w
						break
					}
				}
				if got := s.Min(); got != wantMin {
					t.Fatalf("step %d: Min = %d, ref %d", step, got, wantMin)
				}
				// Derived relations vs other.
				refSubset, refIntersects := true, false
				for w := range ref {
					if !refOther[w] {
						refSubset = false
					}
					if refOther[w] {
						refIntersects = true
					}
				}
				if s.SubsetOf(other) != refSubset {
					t.Fatalf("step %d: SubsetOf = %v, ref %v", step, s.SubsetOf(other), refSubset)
				}
				if s.Intersects(other) != refIntersects {
					t.Fatalf("step %d: Intersects = %v, ref %v", step, s.Intersects(other), refIntersects)
				}
				refEqual := len(ref) == len(refOther) && refSubset
				if s.Equal(other) != refEqual {
					t.Fatalf("step %d: Equal = %v, ref %v", step, s.Equal(other), refEqual)
				}
				// ForEach must enumerate ascending, exactly ref.
				prev := -1
				count := 0
				s.ForEach(func(w int) {
					if w <= prev {
						t.Fatalf("step %d: ForEach order violated at %d after %d", step, w, prev)
					}
					if !ref[w] {
						t.Fatalf("step %d: ForEach yielded %d not in ref", step, w)
					}
					prev = w
					count++
				})
				if count != len(ref) {
					t.Fatalf("step %d: ForEach yielded %d elems, ref %d", step, count, len(ref))
				}
				// Clone then mutate: the original must not move.
				c := s.Clone()
				c.Add(probes[rng.Intn(len(probes))])
				for _, p := range probes {
					if s.Has(p) != ref[p] {
						t.Fatalf("step %d: Clone mutation leaked into original at %d", step, p)
					}
				}
			}
		})
	}
}

// TestDigraphArenaBoundaries pins the shared-arena layout of Digraph at
// every boundary width: one edge written between seam nodes must light
// exactly its own out bit, in bit, and the two presence bits — any
// arena-stride or reslice error bleeds into a neighboring set's words.
func TestDigraphArenaBoundaries(t *testing.T) {
	for _, n := range boundaryWidths {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			probes := seamIndices(n)
			for _, u := range probes {
				for _, v := range probes {
					g := NewDigraph(n)
					g.AddEdge(u, v)
					if got := g.present.Len(); (u == v && got != 1) || (u != v && got != 2) {
						t.Fatalf("edge %d->%d: present = %v", u, v, g.present)
					}
					for w := 0; w < n; w++ {
						wantOut := 0
						if w == u {
							wantOut = 1
						}
						if g.out[w].Len() != wantOut {
							t.Fatalf("edge %d->%d: out[%d] = %v", u, v, w, g.out[w])
						}
						wantIn := 0
						if w == v {
							wantIn = 1
						}
						if g.in[w].Len() != wantIn {
							t.Fatalf("edge %d->%d: in[%d] = %v", u, v, w, g.in[w])
						}
					}
					if !g.out[u].Has(v) || !g.in[v].Has(u) {
						t.Fatalf("edge %d->%d: adjacency bits missing", u, v)
					}
				}
			}
		})
	}
}

// TestDigraphArenaAppendConfinement verifies the full-capacity reslices:
// growing one arena-backed set past its slot (via Add on a node beyond
// the universe) must reallocate that set's words, never clobber the
// neighboring slot of the shared arena.
func TestDigraphArenaAppendConfinement(t *testing.T) {
	for _, n := range boundaryWidths {
		g := NewDigraph(n)
		for u := 0; u < n; u++ {
			g.AddEdge(u, (u+1)%n)
		}
		snapshot := NewDigraph(n)
		snapshot.present.CopyFrom(g.present)
		for i := 0; i < n; i++ {
			snapshot.out[i].CopyFrom(g.out[i])
			snapshot.in[i].CopyFrom(g.in[i])
		}
		// Grow out[0] beyond the universe: the append must escape the
		// arena instead of overwriting out[1]'s words.
		g.out[0].Add(n + 130)
		if !g.present.Equal(snapshot.present) {
			t.Fatalf("n=%d: present changed after out[0] grew", n)
		}
		for i := 1; i < n; i++ {
			if !g.out[i].Equal(snapshot.out[i]) {
				t.Fatalf("n=%d: out[%d] clobbered after out[0] grew", n, i)
			}
		}
		for i := 0; i < n; i++ {
			if !g.in[i].Equal(snapshot.in[i]) {
				t.Fatalf("n=%d: in[%d] clobbered after out[0] grew", n, i)
			}
		}
	}
}

// TestLabeledArenaBoundaries is the Labeled counterpart: one labeled
// edge between seam nodes must produce exactly one key, one out shadow
// bit, one in shadow bit, and the right presence bits, and Label must
// read it back at its own pair only.
func TestLabeledArenaBoundaries(t *testing.T) {
	for _, n := range boundaryWidths {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			probes := seamIndices(n)
			for _, u := range probes {
				for _, v := range probes {
					g := NewLabeled(n)
					g.MergeEdge(u, v, 7)
					if g.NumEdges() != 1 || g.Label(u, v) != 7 || g.keys[0] != edgeKey(u, v) {
						t.Fatalf("edge %d->%d: NumEdges=%d Label=%d keys=%#x", u, v, g.NumEdges(), g.Label(u, v), g.keys)
					}
					for w := 0; w < n; w++ {
						wantOut := 0
						if w == u {
							wantOut = 1
						}
						if g.shadow.out[w].Len() != wantOut {
							t.Fatalf("edge %d->%d: out shadow [%d] = %v", u, v, w, g.shadow.out[w])
						}
						wantIn := 0
						if w == v {
							wantIn = 1
						}
						if g.shadow.in[w].Len() != wantIn {
							t.Fatalf("edge %d->%d: in shadow [%d] = %v", u, v, w, g.shadow.in[w])
						}
					}
					for a := 0; a < n; a++ {
						for b := 0; b < n; b++ {
							want := 0
							if a == u && b == v {
								want = 7
							}
							if g.Label(a, b) != want {
								t.Fatalf("edge %d->%d: stray label at (%d,%d)=%d", u, v, a, b, g.Label(a, b))
							}
						}
					}
					checkLabeledInvariants(t, g)
				}
			}
		})
	}
}
