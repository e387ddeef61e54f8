package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(10)
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(3)
	s.Add(7)
	s.Add(3)
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if !s.Has(3) || !s.Has(7) || s.Has(4) {
		t.Fatal("membership wrong")
	}
	s.Remove(3)
	if s.Has(3) {
		t.Fatal("Remove failed")
	}
	s.Remove(3) // removing absent is a no-op
	if got := s.Len(); got != 1 {
		t.Fatalf("Len after removes = %d, want 1", got)
	}
}

func TestNodeSetGrowsBeyondUniverse(t *testing.T) {
	s := NewNodeSet(4)
	s.Add(100)
	if !s.Has(100) {
		t.Fatal("set did not grow")
	}
	if s.Has(99) {
		t.Fatal("spurious member after grow")
	}
}

func TestNodeSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	s := NewNodeSet(4)
	s.Add(-1)
}

func TestNodeSetOf(t *testing.T) {
	s := NodeSetOf(5, 1, 5, 9)
	if got := s.elems(); len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("Elems = %v, want [1 5 9]", got)
	}
}

func TestFullNodeSet(t *testing.T) {
	s := FullNodeSet(70) // spans two words
	if s.Len() != 70 {
		t.Fatalf("Len = %d, want 70", s.Len())
	}
	for i := 0; i < 70; i++ {
		if !s.Has(i) {
			t.Fatalf("missing %d", i)
		}
	}
	if s.Has(70) {
		t.Fatal("unexpected member 70")
	}
}

func TestNodeSetSetOps(t *testing.T) {
	a := NodeSetOf(1, 2, 3)
	b := NodeSetOf(3, 4)
	if got := union(a, b).elems(); len(got) != 4 {
		t.Fatalf("union = %v", got)
	}
	if got := a.intersect(b).elems(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("intersect = %v", got)
	}
	diff := a.Clone()
	diff.SubtractWith(b)
	if got := diff.elems(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("subtract = %v", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects false")
	}
	if a.Intersects(NodeSetOf(9)) {
		t.Fatal("Intersects true for disjoint")
	}
}

func TestNodeSetSubsetAndEqualAcrossSizes(t *testing.T) {
	small := NodeSetOf(1, 2)
	big := NewNodeSet(200)
	big.Add(1)
	big.Add(2)
	if !small.Equal(big) || !big.Equal(small) {
		t.Fatal("Equal should ignore universe size")
	}
	if !small.SubsetOf(big) || !big.SubsetOf(small) {
		t.Fatal("SubsetOf should ignore universe size")
	}
	big.Add(150)
	if small.Equal(big) {
		t.Fatal("Equal after high-bit add")
	}
	if !small.SubsetOf(big) {
		t.Fatal("small should still be subset")
	}
	if big.SubsetOf(small) {
		t.Fatal("big is not subset of small")
	}
}

func TestNodeSetCloneIndependence(t *testing.T) {
	a := NodeSetOf(1, 2)
	b := a.Clone()
	b.Add(9)
	if a.Has(9) {
		t.Fatal("clone aliases original")
	}
}

func TestNodeSetMin(t *testing.T) {
	if m := NodeSetOf(9, 70, 3).Min(); m != 3 {
		t.Fatalf("Min = %d, want 3", m)
	}
	empty := NewNodeSet(8)
	if m := empty.Min(); m != -1 {
		t.Fatalf("Min of empty = %d, want -1", m)
	}
}

func TestNodeSetString(t *testing.T) {
	if got := NodeSetOf(0, 2).String(); got != "{p1, p3}" {
		t.Fatalf("String = %q", got)
	}
	if got := NewNodeSet(3).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestSortNodeSets(t *testing.T) {
	sets := []NodeSet{NodeSetOf(5), NodeSetOf(1, 9), NodeSetOf(3)}
	sortNodeSets(sets)
	if sets[0].Min() != 1 || sets[1].Min() != 3 || sets[2].Min() != 5 {
		t.Fatalf("sort order wrong: %v", sets)
	}
}

// randomSet draws a random subset of 0..119 (crosses word boundaries).
func randomSet(rng *rand.Rand) NodeSet {
	s := NewNodeSet(120)
	for i := 0; i < 120; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

func TestNodeSetPropertyDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	universe := FullNodeSet(120)
	for trial := 0; trial < 200; trial++ {
		a, b := randomSet(rng), randomSet(rng)
		// universe \ (a ∪ b) == (universe \ a) ∩ (universe \ b)
		left, notA, notB := universe.Clone(), universe.Clone(), universe.Clone()
		left.SubtractWith(union(a, b))
		notA.SubtractWith(a)
		notB.SubtractWith(b)
		if !left.Equal(notA.intersect(notB)) {
			t.Fatalf("De Morgan violated: a=%v b=%v", a, b)
		}
	}
}

func TestNodeSetPropertyLenUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		a, b := randomSet(rng), randomSet(rng)
		if union(a, b).Len()+a.intersect(b).Len() != a.Len()+b.Len() {
			t.Fatal("inclusion-exclusion violated")
		}
	}
}

func TestNodeSetQuickElemsRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewNodeSet(256)
		seen := map[int]bool{}
		for _, v := range raw {
			s.Add(int(v))
			seen[int(v)] = true
		}
		elems := s.elems()
		if len(elems) != len(seen) {
			return false
		}
		for i, v := range elems {
			if !seen[v] {
				return false
			}
			if i > 0 && elems[i-1] >= v {
				return false // must be strictly ascending
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSetForEachOrder(t *testing.T) {
	s := NodeSetOf(64, 0, 63, 65, 1)
	var got []int
	s.ForEach(func(v int) { got = append(got, v) })
	want := []int{0, 1, 63, 64, 65}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v, want %v", got, want)
		}
	}
}

// union is a ∪ b as a new set.
func union(a, b NodeSet) NodeSet {
	u := a.Clone()
	u.UnionWith(b)
	return u
}

// elems returns the nodes in ascending order.
func (s NodeSet) elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(v int) { out = append(out, v) })
	return out
}
