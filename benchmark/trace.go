package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. A plain span is one
// call: Count is 1 and Busy is End-Start. An aggregate span stands for
// every call of one kind inside its parent (all Transition calls of one
// run, say): Start is the first call's entry, End the last call's
// return, Count the calls and Busy their summed durations. The hot path
// of a live run makes ~10^6 decorated calls a second, so per-call spans
// would cost more memory and time than the run itself; aggregates keep
// the same name/parent/run structure at one span per kind per run.
//
// Lanes is the number of goroutines whose time Busy sums over: n for
// the per-process aggregates of a live run, 1 everywhere else. Busy
// divided by Lanes is the span's wall-clock equivalent, the unit the
// self-time roll-up works in.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Run    int    `json:"run"`    // spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
	Busy   int64  `json:"busy_ns"`
	Lanes  int    `json:"lanes"`
}

// recorder holds the spans of one traced run in memory.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the recorder's clock: monotonic nanoseconds since its epoch.
func (rec *recorder) now() int64 { return int64(time.Since(rec.epoch)) }

// begin opens a plain span and returns its id; end closes it.
func (rec *recorder) begin(name string, parent, run int) int {
	t := rec.now()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.spans = append(rec.spans, span{
		ID: len(rec.spans), Parent: parent, Run: run, Name: name, Start: t, Count: 1, Lanes: 1,
	})
	return len(rec.spans) - 1
}

func (rec *recorder) end(id int) {
	t := rec.now()
	rec.mu.Lock()
	s := &rec.spans[id]
	s.End = t
	s.Busy = t - s.Start
	rec.mu.Unlock()
}

// timed records fn as a plain span.
func (rec *recorder) timed(name string, parent, run int, fn func()) {
	id := rec.begin(name, parent, run)
	fn()
	rec.end(id)
}

// aggregate records an already-summed aggregate span and returns its id.
func (rec *recorder) aggregate(name string, parent, run int, a calls, lanes int) int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.spans = append(rec.spans, span{
		ID: len(rec.spans), Parent: parent, Run: run, Name: name,
		Start: a.first, End: a.last, Count: a.n, Busy: a.ns, Lanes: lanes,
	})
	return len(rec.spans) - 1
}

// calls accumulates the calls of one kind made by one goroutine.
type calls struct {
	first, last int64 // entry of the first call, return of the last
	ns, n       int64
}

func (c *calls) add(start, end int64) {
	if c.n == 0 {
		c.first = start
	}
	c.last = end
	c.ns += end - start
	c.n++
}

// merge folds another goroutine's calls of the same kind into c.
func (c *calls) merge(o calls) {
	if o.n == 0 {
		return
	}
	if c.n == 0 || o.first < c.first {
		c.first = o.first
	}
	if o.last > c.last {
		c.last = o.last
	}
	c.ns += o.ns
	c.n += o.n
}

// row is the roll-up of every span of one name.
type row struct {
	Name  string
	Spans int
	Count int64   // calls
	Busy  float64 // summed Busy, ns (over all lanes)
	// Wall and Self are in wall-clock-equivalent ns (Busy/Lanes): Wall
	// is the time the spans covered, Self is Wall minus the part their
	// child spans cover. SelfBusy is Self summed over the lanes again,
	// the unit of the per-round rows of a live run.
	Wall, Self, SelfBusy float64
}

// rollUp computes per-name totals and self times.
func (rec *recorder) rollUp() map[string]*row {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	childWall := make([]float64, len(rec.spans))
	for _, s := range rec.spans {
		if s.Parent >= 0 {
			childWall[s.Parent] += float64(s.Busy) / float64(s.Lanes)
		}
	}
	rows := map[string]*row{}
	for _, s := range rec.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{Name: s.Name}
			rows[s.Name] = r
		}
		wall := float64(s.Busy) / float64(s.Lanes)
		r.Spans++
		r.Count += s.Count
		r.Busy += float64(s.Busy)
		r.Wall += wall
		r.Self += wall - childWall[s.ID]
		r.SelfBusy += (wall - childWall[s.ID]) * float64(s.Lanes)
	}
	return rows
}

// sortedRows returns the roll-up ordered by self time, largest first.
func sortedRows(rows map[string]*row) []*row {
	out := make([]*row, 0, len(rows))
	for _, r := range rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeTo writes the spans as JSON lines.
func (rec *recorder) writeTo(w io.Writer) error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
