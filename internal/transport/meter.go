package transport

import (
	"fmt"
	"math/bits"
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
//
// A receiver ORs its heard row into one flat table under the lock (one
// row per receiver and round, appended as rounds arrive); Graphs builds
// each round's Digraph once, after the run.
type HeardMeter struct {
	n, words int

	mu     sync.Mutex
	rows   []uint64         // rows[((r-1)·n + p)·words …] = the senders p heard in round r
	graphs []*graph.Digraph // graphs[r-1] = realized graph of round r, built by Graphs
}

// NewHeardMeter returns a meter for an n-process run.
func NewHeardMeter(n int) *HeardMeter {
	return &HeardMeter{n: n, words: (n + 63) / 64}
}

// row returns receiver self's heard row of round r.
func (m *HeardMeter) row(r, self int) []uint64 {
	off := ((r-1)*m.n + self) * m.words
	return m.rows[off : off+m.words]
}

// record notes the heard-set of receiver self in round r: recv[q] is
// nil iff q's payload did not arrive (injected drop or real loss).
// Safe for concurrent use by all receivers of a round; each (r, self)
// pair must be recorded at most once per run.
func (m *HeardMeter) record(r, self int, recv [][]byte) {
	m.mu.Lock()
	if need := r * m.n * m.words; need > len(m.rows) {
		m.rows = append(m.rows, make([]uint64, need-len(m.rows))...)
	}
	row := m.row(r, self)
	for q, payload := range recv {
		if payload != nil {
			row[q/64] |= 1 << (q % 64)
		}
	}
	m.mu.Unlock()
}

// Graphs returns the recorded per-round graphs (graphs[r-1] = round r),
// building each round's graph the first time it is asked for. Call it
// once the run has finished: the returned slice is a snapshot, and the
// graphs themselves are shared and must be treated as read-only.
func (m *HeardMeter) Graphs() []*graph.Digraph {
	m.mu.Lock()
	defer m.mu.Unlock()
	for r := len(m.graphs) + 1; r*m.n*m.words <= len(m.rows) && m.n > 0; r++ {
		g := graph.NewFullDigraph(m.n)
		for p := 0; p < m.n; p++ {
			for x, w := range m.row(r, p) {
				for ; w != 0; w &= w - 1 {
					g.AddEdge(x*64+bits.TrailingZeros64(w), p)
				}
			}
		}
		m.graphs = append(m.graphs, g)
	}
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
