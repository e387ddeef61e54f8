package adversary

import (
	"fmt"
	"math/rand"

	"kset/internal/graph"
)

// Mobile is the Santoro-Widmayer mobile-omission adversary ("Time is not
// a healer", STACS 1989; Theor. Comput. Sci. 384, 2007 — the paper's
// references [15, 16]): in every round an otherwise complete graph loses
// the out-edges (except self-loops) of a freshly chosen set of f "silent"
// processes. No process is permanently faulty, yet if the silence moves
// forever, every process is eventually silenced and the stable skeleton
// collapses to self-loops: the regime in which even 1 mobile omission
// fault makes consensus impossible.
//
// With settleRound > 0 the silence stops moving: from that round on the
// same f processes are silenced forever, so the stable skeleton is the
// complete graph minus those out-edges and Algorithm 1 terminates (the
// skeleton's MinK bounds the decisions as usual). With settleRound == 0
// the adversary never stabilizes and deliberately does not implement
// rounds.Stabilizer.
//
// Graph(r) is deterministic in (seed, r).
type Mobile struct {
	n           int
	f           int
	seed        int64
	settleRound int
	roundRobin  bool
	settledSet  graph.NodeSet
}

// NewMobile returns a mobile-omission adversary on n processes with f
// randomly chosen silent processes per round. If settleRound > 0, the
// silent set freezes from that round on.
func NewMobile(n, f int, settleRound int, seed int64) *Mobile {
	if f < 0 || f > n {
		panic(fmt.Sprintf("adversary: mobile f=%d out of range [0,%d]", f, n))
	}
	m := &Mobile{n: n, f: f, seed: seed, settleRound: settleRound}
	if settleRound > 0 {
		m.settledSet = m.silentSet(settleRound)
	}
	return m
}

// NewMobileRoundRobin returns the classical deterministic mobile
// adversary: round r silences processes (f·(r-1)) mod n, ...,
// (f·(r-1)+f-1) mod n, sweeping the whole system every ⌈n/f⌉ rounds —
// the schedule behind the "time is not a healer" impossibility: every
// skeleton edge (u, v), u ≠ v, is dead by round ⌈n/f⌉.
func NewMobileRoundRobin(n, f int, settleRound int, seed int64) *Mobile {
	m := NewMobile(n, f, settleRound, seed)
	m.roundRobin = true
	if settleRound > 0 {
		m.settledSet = m.silentSet(settleRound)
	}
	return m
}

// N implements rounds.Adversary.
func (m *Mobile) N() int { return m.n }

// Graph implements rounds.Adversary.
func (m *Mobile) Graph(r int) *graph.Digraph {
	silent := m.silentSet(r)
	if m.settleRound > 0 && r >= m.settleRound {
		silent = m.settledSet
	}
	g := graph.CompleteDigraph(m.n)
	silent.ForEach(func(p int) {
		for v := 0; v < m.n; v++ {
			if v != p {
				g.RemoveEdge(p, v)
			}
		}
	})
	return g
}

// silentSet computes the set of processes silenced in round r: a
// round-robin window for the classical deterministic schedule, or a
// seeded random f-subset. (Stabilization is exposed separately, through
// the SettledMobile wrapper returned by Settled.)
func (m *Mobile) silentSet(r int) graph.NodeSet {
	set := graph.NewNodeSet(m.n)
	if m.roundRobin {
		for i := 0; i < m.f; i++ {
			set.Add((m.f*(r-1) + i) % m.n)
		}
		return set
	}
	rng := rand.New(rand.NewSource(m.seed + int64(r)*2654435761))
	for _, p := range rng.Perm(m.n)[:m.f] {
		set.Add(p)
	}
	return set
}

// settles reports whether the silent set eventually freezes.
func (m *Mobile) settles() bool { return m.settleRound > 0 }

// Settled returns the adversary wrapped with a rounds.Stabilizer
// implementation; it panics if the silence never settles.
func (m *Mobile) Settled() *SettledMobile {
	if !m.settles() {
		panic("adversary: Settled on a non-settling mobile adversary")
	}
	return &SettledMobile{Mobile: m}
}

// SettledMobile is a settling mobile adversary with its stabilization
// round exposed.
type SettledMobile struct {
	*Mobile
}

// StabilizationRound implements rounds.Stabilizer.
func (s *SettledMobile) StabilizationRound() int { return s.settleRound }

// StableSkeleton returns G^∩∞ of the settled run: complete minus the
// out-edges of every process that was ever silent... intersected over all
// rounds, which for a moving prefix typically collapses most edges. It is
// computed by explicit intersection up to the settle round.
func (s *SettledMobile) StableSkeleton() *graph.Digraph {
	skel := s.Graph(s.settleRound).Clone()
	for r := 1; r < s.settleRound; r++ {
		skel.IntersectWith(s.Graph(r))
	}
	return skel
}
