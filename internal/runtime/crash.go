package runtime

import (
	"fmt"
	"time"

	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/transport"
)

// CrashSite pins where inside its crash round a process dies. The three
// sites carve the round at its observable boundaries: before the
// broadcast (the round-r message reaches nobody), in the middle of it (a
// strict subset of receivers got it — the paper's Figure 1 asymmetry,
// manufactured on purpose), or after it (everyone got the last message,
// then the process fell silent).
type CrashSite uint8

const (
	// CrashBeforeSend kills the process before its round-r broadcast.
	CrashBeforeSend CrashSite = iota
	// CrashMidSend kills the process mid-broadcast: only the receivers
	// in the plan's Partial set get the round-r message.
	CrashMidSend
	// CrashAfterSend kills the process right after a complete round-r
	// broadcast, before it gathers or transitions.
	CrashAfterSend
)

// String implements fmt.Stringer.
func (s CrashSite) String() string {
	switch s {
	case CrashBeforeSend:
		return "before-send"
	case CrashMidSend:
		return "mid-send"
	case CrashAfterSend:
		return "after-send"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// CrashPlan schedules process crashes for one run: process i dies in
// round Round[i] (0 = never) at Site[i]; for a mid-send crash,
// Partial[i] names the receivers its final broadcast reaches (its own
// node always hears itself — self-delivery is unconditional on every
// transport, matching the paper's crashed-but-internally-correct node).
//
// The plan acts in two places, which together make an injected crash
// indistinguishable from a real one at every layer below the injector:
// the process's worker stops stepping it at the site (no send, gather or
// transition ever again — the process IS dead, not simulating dead), and
// the crash-cut transport policy drops the sends a real crash would have
// lost.
//
// Notify selects announced versus silent death. Announced (Notify =
// true) calls MarkDead on the transport at the crash, the way a
// supervisor announces a dead child — required on a transport that
// closes rounds by count only (in-proc, TCP without a round deadline)
// and so never notices silence: runChaos rejects a silent plan there.
// Silent (false) leaves detection to the transport's stall layer:
// each node burns deadlines until its stall detector forgets the
// victim's node. Silent crashes assume one process per node on the
// socket meshes — a silent co-located process would wedge its node's
// shared writer, which is faithful to what an OS process crash does to
// everything inside it.
type CrashPlan struct {
	Round   []int
	Site    []CrashSite
	Partial []graph.NodeSet
	Notify  bool
}

// validate checks the plan's shape against an n-process run. A nil plan
// is valid (no crashes).
func (p *CrashPlan) validate(n int) error {
	if p == nil {
		return nil
	}
	if len(p.Round) != n || len(p.Site) != n {
		return fmt.Errorf("runtime: crash plan sized for %d/%d processes, run has %d", len(p.Round), len(p.Site), n)
	}
	for i, r := range p.Round {
		if r < 0 {
			return fmt.Errorf("runtime: p%d crash round %d, need >= 0", i+1, r)
		}
		if r != 0 && p.Site[i] == CrashMidSend && (p.Partial == nil || len(p.Partial) != n) {
			return fmt.Errorf("runtime: p%d crashes mid-send but the plan has no Partial sets", i+1)
		}
		if p.Site[i] > CrashAfterSend {
			return fmt.Errorf("runtime: p%d crash site %d out of range", i+1, p.Site[i])
		}
	}
	return nil
}

// crashes returns the number of processes the plan kills.
func (p *CrashPlan) crashes() int {
	if p == nil {
		return 0
	}
	c := 0
	for _, r := range p.Round {
		if r != 0 {
			c++
		}
	}
	return c
}

// cut restricts row, the receivers of process from's round-r broadcast,
// to those the plan lets it reach (the crash cut alone — the run's
// schedule composes under it). Every round before the crash round is
// untouched and every round after it is empty; in the crash round
// itself before-send empties the row, mid-send intersects it with
// Partial[from], and after-send leaves it whole.
func (p *CrashPlan) cut(r, from int, row graph.NodeSet) {
	if p == nil {
		return
	}
	switch cr := p.Round[from]; {
	case cr == 0 || r < cr:
	case r > cr || p.Site[from] == CrashBeforeSend:
		row.Clear()
	case p.Site[from] == CrashMidSend:
		row.IntersectWith(p.Partial[from])
	}
}

// aliveEntering counts the processes that are stepped in round r:
// everyone whose crash round is unset or still ahead — a process is
// stepped (up to its site) IN its crash round, and never after.
func (p *CrashPlan) aliveEntering(r int) int {
	alive := 0
	for _, cr := range p.Round {
		if cr == 0 || cr >= r {
			alive++
		}
	}
	return alive
}

// survivorsDecided reports whether every process the plan never kills
// has decided — the chaos run's graceful-degradation stop rule. False
// when a survivor does not implement Decider (no decision to wait for).
func (p *CrashPlan) survivorsDecided(procs []rounds.Algorithm) bool {
	for i, proc := range procs {
		if p.Round[i] != 0 {
			continue
		}
		d, ok := proc.(rounds.Decider)
		if !ok || !d.Decided() {
			return false
		}
	}
	return true
}

// crashCut composes a crash plan's send cut under an inner policy: a
// delivery happens iff the inner policy (the run's schedule) makes it
// AND the plan lets the sender make it.
type crashCut struct {
	inner transport.Policy
	plan  *CrashPlan
}

// Deliver implements transport.Policy.
func (c crashCut) Deliver(r, from int, to graph.NodeSet) {
	c.inner.Deliver(r, from, to)
	c.plan.cut(r, from, to)
}

// StallPlan delays processes' broadcasts without killing them: process
// i's round-r send is preceded by a Delay[i] sleep for every r in
// [From[i], To[i]]. It is the stimulus for the recoverable half of the
// stall machinery — deadline closures, grace extensions, miss streaks
// that end before the verdict — and, when Delay ≥ RoundTimeout ×
// DeadAfter, for a false-positive death verdict on a slow-but-alive
// peer: the others stop hearing it, it keeps hearing itself
// (internal/chaos TestStallVerdictSparesItsSuspect).
type StallPlan struct {
	From, To []int
	Delay    []time.Duration
}

// validate checks the plan's shape. A nil plan is valid (no stalls).
func (s *StallPlan) validate(n int) error {
	if s == nil {
		return nil
	}
	if len(s.From) != n || len(s.To) != n || len(s.Delay) != n {
		return fmt.Errorf("runtime: stall plan sized for %d/%d/%d processes, run has %d",
			len(s.From), len(s.To), len(s.Delay), n)
	}
	return nil
}

// delay returns process self's send delay for round r.
func (s *StallPlan) delay(self, r int) time.Duration {
	if s == nil || s.Delay[self] <= 0 {
		return 0
	}
	if r >= s.From[self] && r <= s.To[self] {
		return s.Delay[self]
	}
	return 0
}
