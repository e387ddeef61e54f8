package transport

import (
	"fmt"
	"sync"

	"kset/internal/graph"
)

// HeardMeter records the realized communication graphs of a run: edge
// q->p in round r's graph means process p actually obtained process q's
// round-r payload at Gather time. On a reliable transport this is
// exactly the Policy's scheduled graph; on a lossy transport it is the
// scheduled graph minus whatever the network dropped — which is what
// makes the meter the ground truth for the loss-replay differential
// mode: the recorded graphs can be replayed through the sequential
// executor as a Schedule adversary.
//
// Recording happens per successful Gather, so the meter is complete for
// every round the run closed, and self-delivery (unconditional on every
// transport) guarantees each recorded graph carries all self-loops —
// the well-formedness the rounds model requires.
type HeardMeter struct {
	n  int
	mu sync.Mutex

	graphs []*graph.Digraph // graphs[r-1] = realized graph of round r
}

// NewHeardMeter returns a meter for an n-process run.
func NewHeardMeter(n int) *HeardMeter {
	return &HeardMeter{n: n}
}

// Record notes the heard-set of receiver self in round r: recv[q] is
// nil iff q's payload did not arrive (injected drop or real loss).
// Safe for concurrent use by all receivers of a round; each (r, self)
// pair must be recorded at most once per run.
func (m *HeardMeter) Record(r, self int, recv [][]byte) {
	m.mu.Lock()
	for len(m.graphs) < r {
		m.graphs = append(m.graphs, graph.NewFullDigraph(m.n))
	}
	g := m.graphs[r-1]
	for q, payload := range recv {
		if payload != nil {
			g.AddEdge(q, self)
		}
	}
	m.mu.Unlock()
}

// Graphs returns the recorded per-round graphs (graphs[r-1] = round r).
// The returned slice is a snapshot; the graphs themselves are shared
// and must be treated as read-only once the run has finished.
func (m *HeardMeter) Graphs() []*graph.Digraph {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*graph.Digraph(nil), m.graphs...)
}

// Metered attaches m to tr so that every successful Gather records its
// realized heard-set — the ground truth the replay harnesses feed back
// through the sequential executor. Every transport in this package is
// the mesh core, whose Gather records natively, so nothing is wrapped:
// the meter is installed on the core. It must be attached before any
// endpoint is claimed; a transport that is not a mesh is rejected.
func Metered(tr Transport, m *HeardMeter) error {
	c, ok := tr.(interface{ core() *mesh })
	if !ok {
		return fmt.Errorf("transport: cannot meter a %T: not a mesh transport", tr)
	}
	return c.core().setMeter(m)
}
