package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/runtime"
	"kset/internal/transport"
)

// mesh says how one operation's rounds are executed: on the lockstep
// executor ("sim") or on the live runtime over one of the three
// transports. The untraced path hands it to runtime.NewRunner; the
// traced path rebuilds the same run from the public constructors
// NewRunner composes, with a decorator at every layer boundary.
type mesh struct {
	kind      string // "sim", "inproc", "tcp" or "udp"
	nodes     int    // mesh nodes for tcp/udp; 0 = one per process
	loss      float64
	lossSeed  int64
	udp       transport.UDPOpts
	meter     *transport.HeardMeter // udp only: realized heard-sets for the output check
	algorithm string                // registered family; "" = kset
}

// runner returns the untraced executor: nil for the lockstep default.
func (m mesh) runner() func(rounds.Config) (*rounds.Result, error) {
	if m.kind == "sim" {
		return nil
	}
	return runtime.NewRunner(runtime.RunnerOpts{
		Kind: m.kind, Nodes: m.nodes, UDP: m.udp, Loss: m.loss, LossSeed: m.lossSeed,
		Meter: m.meter, Algorithm: m.algorithm,
	})
}

// build constructs the transport the way runtime.NewRunner does.
func (m mesh) build(adv *adversary.Run) (transport.Transport, error) {
	n := adv.N()
	nodes := m.nodes
	if nodes <= 0 || nodes > n {
		nodes = n
	}
	pol := transport.NewSchedule(adv)
	switch m.kind {
	case "inproc":
		return transport.NewInProc(n, pol), nil
	case "tcp":
		return transport.NewTCPMeshLoopbackOpts(n, nodes, pol, transport.TCPOpts{})
	case "udp":
		u := m.udp
		if injected := transport.FrameLoss(m.loss, m.lossSeed); injected != nil {
			u.DropDatagram = injected
		}
		u.Meter = m.meter
		return transport.NewUDPMeshLoopback(n, nodes, pol, u)
	}
	return nil, fmt.Errorf("unknown transport kind %q", m.kind)
}

// opTrace is the trace state of one traced operation (one sim.Execute
// call): the hot-path accumulators its decorators write, flushed into
// aggregate spans when the run ends.
type opTrace struct {
	rec    *recorder
	run    int    // run id shared by the operation's spans
	parent int    // the operation's sim.execute span
	family string // "core" or "approx": prefix of the algorithm rows

	procs []*procCalls
	enc   sharedCalls
	dec   sharedCalls
	bytes atomic.Int64
	probe *graphProbe // nil unless the kset kernels are sampled

	rounds int            // rounds the run executed
	adv    *adversary.Run // the schedule a live run materialized
}

// procCalls is one process's accumulators. Only that process's
// goroutine writes them (the lockstep executor's single goroutine
// writes all of them), so they need no synchronisation until the run
// has ended.
type procCalls struct {
	send, transition, broadcast, gather calls
	lost, scheduled                     int64 // deliveries the schedule promised; those that came back nil
	deadlineClosed                      int64 // gathers that gave up on a promised delivery
}

// sharedCalls accumulates calls several goroutines make through one
// shared value (the Codec).
type sharedCalls struct{ ns, n atomic.Int64 }

func (s *sharedCalls) add(ns int64) {
	s.ns.Add(ns)
	s.n.Add(1)
}

func newOpTrace(rec *recorder, run, parent int, family string, n int) *opTrace {
	ot := &opTrace{rec: rec, run: run, parent: parent, family: "core", procs: make([]*procCalls, n)}
	if family == algo.Approx {
		ot.family = "approx"
	}
	for i := range ot.procs {
		ot.procs[i] = &procCalls{}
	}
	return ot
}

// runner returns the traced executor for m.
func (ot *opTrace) runner(m mesh) func(rounds.Config) (*rounds.Result, error) {
	return func(cfg rounds.Config) (*rounds.Result, error) {
		n, err := cfg.Validate()
		if err != nil {
			return nil, err
		}
		inner := cfg.NewProcess
		cfg.NewProcess = func(self int) rounds.Algorithm {
			return newTracedAlg(inner(self), ot.rec, ot.procs[self])
		}
		if ot.probe != nil {
			cfg.Observer = rounds.MultiObserver{cfg.Observer, ot.probe}
		}
		if m.kind == "sim" {
			id := ot.rec.begin("rounds.run_sequential", ot.parent, ot.run)
			res, err := rounds.RunSequential(cfg)
			ot.rec.end(id)
			ot.flush(id, 1, res)
			return res, err
		}

		alg, err := algo.Lookup(m.algorithm)
		if err != nil {
			return nil, err
		}
		var adv *adversary.Run
		ot.rec.timed("adversary.materialize", ot.parent, ot.run, func() {
			adv = adversary.MaterializeRun(cfg.Adversary, cfg.MaxRounds)
		})
		cfg.Adversary, ot.adv = adv, adv
		var tr transport.Transport
		ot.rec.timed("transport.mesh_setup", ot.parent, ot.run, func() {
			tr, err = m.build(adv)
		})
		if err != nil {
			return nil, err
		}
		id := ot.rec.begin("runtime.run", ot.parent, ot.run)
		ttr := &tracedTransport{inner: tr, ot: ot, adv: adv, runSpan: id}
		res, err := runtime.Run(cfg, ttr, tracedCodec{inner: alg.Codec, ot: ot})
		ot.rec.end(id)
		ot.flush(id, n, res)
		return res, err
	}
}

// flush turns the operation's accumulators into aggregate spans under
// the run span. On a live run (lanes = n) the processes' round periods
// become one runtime.processes span whose children are the decorated
// calls, so its self time is what the processes spent outside every
// decorated call: the controller barrier.
func (ot *opTrace) flush(runSpan, lanes int, res *rounds.Result) {
	if res != nil {
		ot.rounds = res.Rounds
	}
	var send, transition, broadcast, gather, periods calls
	for _, p := range ot.procs {
		send.merge(p.send)
		transition.merge(p.transition)
		broadcast.merge(p.broadcast)
		gather.merge(p.gather)
		if p.send.n > 0 {
			// One process's run of consecutive round periods: first
			// Send entry to the return of its last decorated call.
			last := max(p.send.last, p.transition.last, p.broadcast.last, p.gather.last)
			periods.merge(calls{first: p.send.first, last: last, ns: last - p.send.first, n: 1})
		}
	}
	parent := runSpan
	if lanes > 1 {
		parent = ot.rec.aggregate("runtime.processes", runSpan, ot.run, periods, lanes)
	}
	add := func(name string, c calls) {
		if c.n > 0 {
			ot.rec.aggregate(name, parent, ot.run, c, lanes)
		}
	}
	add(ot.family+".send", send)
	add(ot.family+".transition", transition)
	add("transport.broadcast", broadcast)
	add("transport.gather", gather)
	shared := func(s *sharedCalls) calls {
		return calls{first: periods.first, last: periods.last, ns: s.ns.Load(), n: s.n.Load()}
	}
	add("wire.encode", shared(&ot.enc))
	add("wire.decode", shared(&ot.dec))
	if ot.probe != nil && ot.probe.total.n > 0 {
		// The probe runs on the executor's coordinating goroutine; on a
		// live run every process is parked at the barrier meanwhile.
		ot.rec.aggregate("bench.graph_probe", parent, ot.run, ot.probe.total, 1)
	}
}

// tracedAlg decorates one process: it times Send and Transition and
// changes nothing else. It forwards rounds.Decider, which every layer
// above the executor reads decisions through, and offers Unwrap to
// observers that need the concrete process.
type tracedAlg struct {
	inner rounds.Algorithm
	dec   rounds.Decider
	rec   *recorder
	c     *procCalls
}

func newTracedAlg(inner rounds.Algorithm, rec *recorder, c *procCalls) rounds.Algorithm {
	dec, ok := inner.(rounds.Decider)
	if !ok {
		// Both registered families are Deciders; a process that is not
		// cannot be wrapped without hiding that from trace.Collect.
		return inner
	}
	return &tracedAlg{inner: inner, dec: dec, rec: rec, c: c}
}

func (t *tracedAlg) Init(self, n int) { t.inner.Init(self, n) }

func (t *tracedAlg) Send(r int) any {
	start := t.rec.now()
	msg := t.inner.Send(r)
	t.c.send.add(start, t.rec.now())
	return msg
}

func (t *tracedAlg) Transition(r int, recv []any) {
	start := t.rec.now()
	t.inner.Transition(r, recv)
	t.c.transition.add(start, t.rec.now())
}

func (t *tracedAlg) Proposal() int64        { return t.dec.Proposal() }
func (t *tracedAlg) Decided() bool          { return t.dec.Decided() }
func (t *tracedAlg) Decision() (int64, int) { return t.dec.Decision() }

// Unwrap returns the decorated process.
func (t *tracedAlg) Unwrap() rounds.Algorithm { return t.inner }

// tracedCodec decorates the family's codec: time and calls of Encode
// and Decode, and the encoded bytes.
type tracedCodec struct {
	inner algo.Codec
	ot    *opTrace
}

func (c tracedCodec) Encode(dst []byte, msg any) ([]byte, error) {
	start := c.ot.rec.now()
	out, err := c.inner.Encode(dst, msg)
	c.ot.enc.add(c.ot.rec.now() - start)
	c.ot.bytes.Add(int64(len(out) - len(dst)))
	return out, err
}

func (c tracedCodec) NewDecoder(n int) algo.Decoder {
	return tracedDecoder{inner: c.inner.NewDecoder(n), ot: c.ot}
}

type tracedDecoder struct {
	inner algo.Decoder
	ot    *opTrace
}

func (d tracedDecoder) Decode(from int, payload []byte) (any, error) {
	start := d.ot.rec.now()
	msg, err := d.inner.Decode(from, payload)
	d.ot.dec.add(d.ot.rec.now() - start)
	return msg, err
}

// tracedTransport decorates a transport: Close is timed, endpoints are
// decorated, and death verdicts pass through.
type tracedTransport struct {
	inner   transport.Transport
	ot      *opTrace
	adv     *adversary.Run
	runSpan int

	closeOnce sync.Once
}

func (t *tracedTransport) N() int { return t.inner.N() }

func (t *tracedTransport) Endpoint(self int) (transport.Endpoint, error) {
	ep, err := t.inner.Endpoint(self)
	if err != nil {
		return nil, err
	}
	return &tracedEndpoint{Endpoint: ep, rec: t.ot.rec, c: t.ot.procs[self], adv: t.adv}, nil
}

// Close times the first call, the one that tears the mesh down; the
// runtime's later calls find it closed.
func (t *tracedTransport) Close() error {
	var err error
	first := false
	t.closeOnce.Do(func() {
		first = true
		t.ot.rec.timed("transport.close", t.runSpan, t.ot.run, func() { err = t.inner.Close() })
	})
	if first {
		return err
	}
	return t.inner.Close()
}

// MarkDead implements transport.DeadMarker by forwarding.
func (t *tracedTransport) MarkDead(p, fromRound int) {
	if dm, ok := t.inner.(transport.DeadMarker); ok {
		dm.MarkDead(p, fromRound)
	}
}

// tracedEndpoint times Broadcast (busy) and Gather (blocked), and
// counts the deliveries the schedule promised that came back nil.
type tracedEndpoint struct {
	transport.Endpoint
	rec *recorder
	c   *procCalls
	adv *adversary.Run
}

func (ep *tracedEndpoint) Broadcast(r int, payload []byte) error {
	start := ep.rec.now()
	err := ep.Endpoint.Broadcast(r, payload)
	ep.c.broadcast.add(start, ep.rec.now())
	return err
}

func (ep *tracedEndpoint) Gather(r int, into [][]byte) ([][]byte, error) {
	start := ep.rec.now()
	recv, err := ep.Endpoint.Gather(r, into)
	ep.c.gather.add(start, ep.rec.now())
	if err != nil {
		return recv, err
	}
	self := ep.Self()
	g := ep.adv.Graph(r)
	lost := ep.c.lost
	for q, payload := range recv {
		if q == self || !g.HasEdge(q, self) {
			continue
		}
		ep.c.scheduled++
		if payload == nil {
			ep.c.lost++
		}
	}
	if ep.c.lost > lost {
		// Only a deadline closes a round that is short of a frame.
		ep.c.deadlineClosed++
	}
	return recv, nil
}

// graphProbe is a rounds.Observer that times the four public
// graph.Labeled kernels of a k-set transition on the processes' real
// approximation graphs: every 16th round it rebuilds, into its own
// scratch graph, the approximation one process would compute next.
// It only reads process state, as the Observer contract requires.
type graphProbe struct {
	rec     *recorder
	scratch *graph.Labeled
	reach   graph.ReachScratch

	merge, purge, prune, scc calls
	edges, samples           int64
	total                    calls // the whole probe, so its cost is attributed
}

const probeEvery = 16

var _ rounds.Observer = (*graphProbe)(nil)

func (gp *graphProbe) OnRound(r int, _ *graph.Digraph, procs []rounds.Algorithm) {
	if r%probeEvery != 0 {
		return
	}
	start := gp.rec.now()
	n := len(procs)
	self := (r / probeEvery) % n
	p := ksetProcess(procs[self])
	if p == nil {
		return
	}
	if gp.scratch == nil || gp.scratch.N() != n {
		gp.scratch = graph.NewLabeled(n)
	}
	ng := gp.scratch
	ng.Reset()
	ng.AddNode(self)
	t0 := gp.rec.now()
	p.PTView().ForEach(func(q int) {
		ng.MergeEdge(q, self, r+1)
		if q != self {
			ng.MergeFrom(ksetProcess(procs[q]).ApproxView())
		}
	})
	t1 := gp.rec.now()
	ng.PurgeOlderThan(r + 1 - p.PurgeWindow())
	t2 := gp.rec.now()
	ng.PruneUnreachableToInPlace(self, &gp.reach)
	t3 := gp.rec.now()
	ng.StronglyConnectedInto(&gp.reach)
	t4 := gp.rec.now()
	gp.merge.add(t0, t1)
	gp.purge.add(t1, t2)
	gp.prune.add(t2, t3)
	gp.scc.add(t3, t4)
	gp.edges += int64(ng.NumEdges())
	gp.samples++
	gp.total.add(start, gp.rec.now())
}

// ksetProcess returns the Algorithm 1 process behind p, or nil.
func ksetProcess(p rounds.Algorithm) *core.Process {
	if u, ok := p.(interface{ Unwrap() rounds.Algorithm }); ok {
		p = u.Unwrap()
	}
	cp, _ := p.(*core.Process)
	return cp
}
