// Package graph provides the directed-graph substrate used throughout the
// stable-skeleton reproduction: node sets, one arena-backed digraph, the
// round-labeled digraph built on it (a digraph plus a sorted edge list),
// reachability and the strong-connectivity test over one frontier walk,
// strongly connected components, root components, and DOT/ASCII rendering.
//
// Nodes are dense integers 0..n-1 and stand for the processes p1..pn of the
// paper (node i is process p(i+1)). All structures are sized for a fixed
// universe of n nodes, which keeps hot paths allocation-free: the simulator
// rebuilds approximation graphs every round for every process.
package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// NodeSet is a set of nodes over a fixed universe, backed by a bitset.
// The zero value is an empty set over an empty universe; use NewNodeSet to
// size it. Operations whose receivers or arguments have different universe
// sizes treat missing high bits as absent nodes.
type NodeSet struct {
	words []uint64
}

const wordBits = 64

// NewNodeSet returns an empty set able to hold nodes 0..n-1.
func NewNodeSet(n int) NodeSet {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative universe size %d", n))
	}
	return NodeSet{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NodeSetOf returns a set containing exactly the given nodes, sized to fit.
func NodeSetOf(nodes ...int) NodeSet {
	maxNode := -1
	for _, v := range nodes {
		if v > maxNode {
			maxNode = v
		}
	}
	s := NewNodeSet(maxNode + 1)
	for _, v := range nodes {
		s.Add(v)
	}
	return s
}

// FullNodeSet returns the set {0, ..., n-1}.
func FullNodeSet(n int) NodeSet {
	s := NewNodeSet(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

func (s *NodeSet) grow(v int) {
	need := v/wordBits + 1
	for len(s.words) < need {
		s.words = append(s.words, 0)
	}
}

// Add inserts v into the set, growing the universe if needed.
func (s *NodeSet) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("graph: negative node %d", v))
	}
	s.grow(v)
	s.words[v/wordBits] |= 1 << (v % wordBits)
}

// set and unset are Add and Remove for a set whose universe is fixed and
// whose caller has already range-checked v — the arena-backed rows of
// Labeled, whose capacity must never grow into the neighbouring slot.
// Without the growth loop and the range branches they inline into the
// per-edge kernels; an out-of-universe v fails the slice bounds check.
func (s NodeSet) set(v int)   { s.words[uint(v)/wordBits] |= 1 << (uint(v) % wordBits) }
func (s NodeSet) unset(v int) { s.words[uint(v)/wordBits] &^= 1 << (uint(v) % wordBits) }

// Remove deletes v from the set. Removing an absent node is a no-op.
func (s *NodeSet) Remove(v int) {
	if v < 0 || v/wordBits >= len(s.words) {
		return
	}
	s.words[v/wordBits] &^= 1 << (v % wordBits)
}

// Has reports whether v is in the set. A negative v wraps to a word
// index past the end, so one unsigned compare covers both range checks.
func (s NodeSet) Has(v int) bool {
	w := uint(v) / wordBits
	return w < uint(len(s.words)) && s.words[w]&(1<<(uint(v)%wordBits)) != 0
}

// Len returns the number of nodes in the set.
func (s NodeSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of the set.
func (s NodeSet) Clone() NodeSet {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return NodeSet{words: w}
}

// CopyFrom overwrites s with the contents of t, reusing s's storage when
// it is large enough. Hot paths use this instead of Clone to stay
// allocation-free in steady state.
func (s *NodeSet) CopyFrom(t NodeSet) {
	if cap(s.words) < len(t.words) {
		s.words = make([]uint64, len(t.words))
	}
	s.words = s.words[:len(t.words)]
	copy(s.words, t.words)
}

// Clear removes all elements, keeping the universe size.
func (s *NodeSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// UnionWith adds every element of t to s.
func (s *NodeSet) UnionWith(t NodeSet) {
	for len(s.words) < len(t.words) {
		s.words = append(s.words, 0)
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in t.
func (s *NodeSet) IntersectWith(t NodeSet) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// SubtractWith removes every element of t from s.
func (s *NodeSet) SubtractWith(t NodeSet) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &^= t.words[i]
		}
	}
}

// intersect returns a new set s ∩ t.
func (s NodeSet) intersect(t NodeSet) NodeSet {
	r := s.Clone()
	r.IntersectWith(t)
	return r
}

// Equal reports whether s and t contain the same nodes.
func (s NodeSet) Equal(t NodeSet) bool {
	long, short := s.words, t.words
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s NodeSet) SubsetOf(t NodeSet) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t is nonempty.
func (s NodeSet) Intersects(t NodeSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every node in ascending order.
func (s NodeSet) ForEach(fn func(v int)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(i*wordBits + b)
			w &^= 1 << b
		}
	}
}

// next returns the smallest element >= from, or -1 if there is none.
// Iterating with next avoids the closure of ForEach, so traversals can
// run without allocating.
func (s NodeSet) next(from int) int {
	if from < 0 {
		from = 0
	}
	i := from / wordBits
	if i >= len(s.words) {
		return -1
	}
	if w := s.words[i] >> (from % wordBits); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i++; i < len(s.words); i++ {
		if w := s.words[i]; w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Min returns the smallest node in the set, or -1 if empty.
func (s NodeSet) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// rank returns the number of elements of s below v.
func (s NodeSet) rank(v int) int {
	return NodeSet{s.words[:v/wordBits]}.Len() + bits.OnesCount64(s.words[v/wordBits]&(1<<(v%wordBits)-1))
}

// String renders the set as "{p1, p3}" using 1-based process names.
func (s NodeSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "p%d", v+1)
	})
	b.WriteByte('}')
	return b.String()
}

// sortNodeSets orders a slice of sets by their smallest element; useful for
// deterministic output of component lists.
func sortNodeSets(sets []NodeSet) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].Min() < sets[j].Min() })
}
