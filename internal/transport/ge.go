package transport

import (
	"fmt"
	"sync"
)

// gilbertElliott is the classic two-state Markov loss model: each
// directed link is either Good (delivering) or Bad (dropping), and flips
// state between rounds with the transition probabilities implied by the
// mean sojourn times — a mean loss burst of Burst rounds (P[Bad->Good] =
// 1/Burst) separated by mean loss-free gaps of Gap rounds (P[Good->Bad]
// = 1/Gap). The long-run loss rate is Burst/(Burst+Gap), but unlike the
// i.i.d. FrameLoss model the losses arrive in runs, which is what real
// congested or fading links do — and what stresses the stable-skeleton
// assumption hardest, since a burst on a link is exactly a temporarily
// vanished edge.
//
// Every link's state walk is a pure function of (Seed, from, to, round):
// the initial state is drawn from the stationary distribution and each
// transition is decided by a hash of the round, so runs replay exactly.
// States are memoized per link and advanced on demand; a query for an
// earlier round than the memo recomputes the walk from round 1 (correct,
// just slower — transports query rounds in order per link, so the memo
// path is the hot one).
type gilbertElliott struct {
	seed       int64
	pGB, pBG   float64 // per-round transition probabilities
	stationary float64 // P[Bad] at round 1

	mu    sync.Mutex
	links map[uint64]*geLink
}

type geLink struct {
	round int // round the memoized state applies to (0 = not started)
	bad   bool
}

// newGilbertElliott returns the bursty-loss chain with mean burst
// length `burst` and mean gap length `gap` (both in rounds, both >= 1;
// a burst of 1 with a large gap degenerates to rare i.i.d. loss).
func newGilbertElliott(burst, gap float64, seed int64) (*gilbertElliott, error) {
	if burst < 1 || gap < 1 {
		return nil, fmt.Errorf("transport: gilbert-elliott burst = %g, gap = %g, need both >= 1", burst, gap)
	}
	pBG, pGB := 1/burst, 1/gap
	return &gilbertElliott{
		seed:       seed,
		pGB:        pGB,
		pBG:        pBG,
		stationary: pGB / (pGB + pBG),
		links:      make(map[uint64]*geLink),
	}, nil
}

// u returns the round-r transition draw for the link, uniform in [0, 1).
func (g *gilbertElliott) u(r, from, to int) float64 {
	h := mix64(uint64(g.seed) ^ uint64(r)*0x9e3779b97f4a7c15 ^ uint64(from)<<32 ^ uint64(to)<<8 ^ 0xa0761d6478bd642f)
	return float64(h>>11) / (1 << 53)
}

// bad reports whether link from->to is in the Bad state in round r.
func (g *gilbertElliott) bad(r, from, to int) bool {
	key := uint64(from)<<32 | uint64(uint32(to))
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.links[key]
	if l == nil {
		l = &geLink{}
		g.links[key] = l
	}
	if l.round > r {
		l.round, l.bad = 0, false // backwards query: replay the walk
	}
	for l.round < r {
		l.round++
		if l.round == 1 {
			l.bad = g.u(1, from, to) < g.stationary
		} else if l.bad {
			l.bad = g.u(l.round, from, to) >= g.pBG
		} else {
			l.bad = g.u(l.round, from, to) < g.pGB
		}
	}
	return l.bad
}

// GEFrameLoss returns a DropDatagram hook (see UDPOpts) driven by a
// Gilbert–Elliott chain per node link: real wire loss that arrives in
// bursts instead of FrameLoss's i.i.d. coin flips. As with FrameLoss,
// all fragments of a frame share the verdict, so the realized heard-sets
// stay a pure function of (seed, round, link). The from/to arguments of
// the hook are node ids — on a grouped mesh a burst takes out the whole
// node link, the failure unit of a congested path.
func GEFrameLoss(burst, gap float64, seed int64) (func(r, from, to, frag int) bool, error) {
	g, err := newGilbertElliott(burst, gap, seed)
	if err != nil {
		return nil, err
	}
	return func(r, from, to, frag int) bool {
		return g.bad(r, from, to)
	}, nil
}
