// Package service implements ksetd's core: a long-running agreement
// service that multiplexes many concurrent agreement sessions over the
// distributed runtime (internal/runtime). Each session is one run of a
// registered algorithm family (internal/algo — k-set agreement by
// default, graph approximate agreement via SessionSpec.Algorithm) over
// a transport; the service adds the production plumbing the ROADMAP's
// scaling goal needs — a session registry, a bounded worker pool, a
// batched submission API with backpressure, and Prometheus-style
// observability (see http.go and metrics.go for the HTTP surface).
//
// By default k-set sessions execute with the repaired decision guard
// (core.Options.ConservativeDecide), so every session's decisions are
// guaranteed to satisfy the k-bound distinct <= MinK; the paper's
// published guard is available per session via SessionSpec.FaithfulGuard
// for experimentation (E10 documents how it can violate the bound).
package service

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/approx"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/runtime"
	"kset/internal/sim"
	"kset/internal/transport"
)

// Config sizes the service.
type Config struct {
	// Workers bounds the number of sessions executing concurrently;
	// default 8.
	Workers int
	// Queue bounds the number of accepted-but-not-yet-running sessions;
	// submissions beyond it are rejected (backpressure). Default 256.
	Queue int
	// MaxN bounds the per-session process count; default 128.
	MaxN int
	// Retain bounds how many finished sessions the registry keeps for
	// polling before the oldest are evicted; default 4096.
	Retain int
	// SessionTimeout is the per-session watchdog deadline: a session
	// still executing this long after it started is declared crashed —
	// its transport is torn down (which kills the run's process
	// goroutines promptly on every transport), the partial outcome
	// observed so far is flushed into the registry under status
	// "crashed", and the worker moves on. 0 disables the watchdog.
	SessionTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.MaxN <= 0 {
		c.MaxN = 128
	}
	if c.Retain <= 0 {
		c.Retain = 4096
	}
	return c
}

// SessionSpec is one agreement session request, as submitted through
// the batch API. The adversary family plus seed fully determine the
// schedule, so a session is replayable from its spec alone.
type SessionSpec struct {
	// N is the number of processes (required, 1..Config.MaxN; family
	// figure1 fixes it to 6).
	N int `json:"n"`
	// Family selects the schedule generator: complete, rooted,
	// single_source, lowerbound, eventual, tinterval, partition_merge,
	// vertex_stable, figure1.
	Family string `json:"family"`
	// Seed makes the schedule deterministic.
	Seed int64 `json:"seed"`
	// K is the lower-bound construction's k (family lowerbound only);
	// default n/2, at least 1.
	K int `json:"k,omitempty"`
	// Roots is the number of root components (family rooted); default 1.
	Roots int `json:"roots,omitempty"`
	// Noisy is the length of the additive-noise prefix where the family
	// supports one.
	Noisy int `json:"noisy,omitempty"`
	// Proposals overrides the canonical 1..n proposal vector. For
	// algorithm approx, proposals are vertices of the target graph and
	// must lie in [0, vertices).
	Proposals []int64 `json:"proposals,omitempty"`
	// Algorithm selects the registered agreement family: "kset"
	// (default) or "approx" (graph approximate agreement). Unknown
	// names are rejected at submission with the valid-name list.
	Algorithm string `json:"algorithm,omitempty"`
	// Vertices sizes the approx target graph (algorithm approx only);
	// 0 defaults to n+1.
	Vertices int `json:"vertices,omitempty"`
	// Cycle makes the approx target graph a cycle instead of a path.
	Cycle bool `json:"cycle,omitempty"`
	// FaithfulGuard runs the paper's published r >= n decision guard
	// instead of the repaired conservative one (see E10: the published
	// guard may exceed the k-bound). Algorithm kset only.
	FaithfulGuard bool `json:"faithful_guard,omitempty"`
	// Transport selects the session's wire layer: "inproc" (default),
	// "tcp" (loopback sockets; costs n(n-1) stream ends, so n <= 32), or
	// "udp" (best-effort datagrams; the session runs with a generous
	// round deadline so a quiet loopback loses nothing, but any real
	// loss is tolerated by the algorithm, not retransmitted).
	Transport string `json:"transport,omitempty"`
	// MaxRounds overrides the automatic round bound.
	MaxRounds int `json:"max_rounds,omitempty"`
}

// SessionResult is the outcome of a finished session. A crashed
// session (watchdog deadline exceeded) carries a partial result:
// Partial is true, Decisions/Decided/Distinct/Rounds reflect the last
// fully-observed round, and the bound fields (MinK, KBound, RST) are
// zero — the run never finished, so there is no realized skeleton to
// evaluate the theorem against.
type SessionResult struct {
	// Decisions[i] is process i's decision (meaningful where Decided).
	Decisions []int64 `json:"decisions"`
	// Decided[i] reports whether process i decided.
	Decided []bool `json:"decided"`
	// Distinct is the sorted set of decided values.
	Distinct []int64 `json:"distinct"`
	// MinK is the smallest k with Psrcs(k) in the session's run — the
	// theorem-given bound on |Distinct|.
	MinK int `json:"min_k"`
	// KBound reports that the session's agreement-bound oracle held:
	// |Distinct| <= MinK for kset, pairwise-adjacent decisions for
	// approx (vacuously true outside the regime approx claims).
	KBound bool `json:"k_bound"`
	// AllDecided reports whether every process terminated.
	AllDecided bool `json:"all_decided"`
	// Rounds is the number of rounds executed; RST the observed
	// skeleton stabilization round.
	Rounds int `json:"rounds"`
	RST    int `json:"rst"`
	// Partial marks a crashed session's flushed-at-deadline snapshot.
	Partial bool `json:"partial,omitempty"`
}

// Session is one registry entry. Status moves queued -> running ->
// done|failed|crashed.
type Session struct {
	ID     string         `json:"id"`
	Status string         `json:"status"`
	Spec   SessionSpec    `json:"spec"`
	Result *SessionResult `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`

	// adv is the adversary validation built, handed to execute, which
	// takes and clears it: a finished session must not pin a schedule.
	adv rounds.Adversary
}

// SubmitResult is the per-item answer of a batch submission.
type SubmitResult struct {
	ID    string `json:"id,omitempty"`
	Error string `json:"error,omitempty"`
}

// Service is the multiplexed agreement service. Create with New, stop
// with Close.
type Service struct {
	cfg   Config
	start time.Time
	met   metrics
	// stall aggregates, across all sessions, the senders their
	// transports' deadline-closed rounds gave up on, for /metrics.
	stall transport.StallCounters

	queue chan *Session
	stop  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	sessions map[string]*Session
	finished []string // eviction order of terminated (done, failed or crashed) sessions
	nextID   uint64
}

// New starts a service with cfg's worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		start:    time.Now(),
		queue:    make(chan *Session, cfg.Queue),
		stop:     make(chan struct{}),
		sessions: make(map[string]*Session),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops accepting submissions, lets running sessions finish, and
// fails whatever is still queued with "service shutting down".
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	// Workers are gone; drain the queue synchronously.
	for {
		select {
		case sess := <-s.queue:
			s.finish(sess, nil, fmt.Errorf("service shutting down"))
		default:
			return
		}
	}
}

// Submit enqueues a batch of sessions. The answer is positional: each
// spec yields either an assigned session id or a rejection error
// (validation failure, or "queue full" backpressure). Accepted sessions
// execute asynchronously; poll Get.
func (s *Service) Submit(specs []SessionSpec) []SubmitResult {
	out := make([]SubmitResult, len(specs))
	for i, spec := range specs {
		out[i] = s.submitOne(spec)
	}
	return out
}

func (s *Service) submitOne(spec SessionSpec) SubmitResult {
	s.met.submitted.Add(1)
	// Shed before building: validate constructs the session's whole
	// schedule, so backpressure that answers only after it protects memory
	// and spends the CPU anyway. The send below stays the authority.
	s.mu.Lock()
	closed, full := s.closed, len(s.queue) == cap(s.queue)
	s.mu.Unlock()
	if closed {
		return s.reject("service closed")
	}
	if full {
		s.met.shed.Add(1)
		return s.reject("queue full")
	}
	adv, err := s.validate(&spec)
	if err != nil {
		return s.reject(err.Error())
	}
	// The non-blocking enqueue happens under the same lock as the
	// closed-check: Close sets closed under this lock before draining,
	// so a session can never slip into the queue after the drain and
	// sit "queued" forever.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.reject("service closed")
	}
	s.nextID++
	sess := &Session{ID: fmt.Sprintf("s-%06d", s.nextID), Status: "queued", Spec: spec, adv: adv}
	select {
	case s.queue <- sess:
		s.sessions[sess.ID] = sess
		return SubmitResult{ID: sess.ID}
	default:
		// Backpressure: the bounded queue is full. The session was
		// never registered, so rejected ids are not pollable.
		s.met.shed.Add(1)
		return s.reject("queue full")
	}
}

// reject counts a refused submission and answers it with why.
func (s *Service) reject(why string) SubmitResult {
	s.met.rejected.Add(1)
	return SubmitResult{Error: why}
}

// Get returns a snapshot of the session with the given id.
func (s *Service) Get(id string) (Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return Session{}, false
	}
	return *sess, true
}

// list returns snapshots of up to limit sessions with the given status
// ("" matches all), in unspecified order.
func (s *Service) list(status string, limit int) []Session {
	if limit <= 0 {
		limit = 100
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Session, 0, limit)
	for _, sess := range s.sessions {
		if status != "" && sess.Status != status {
			continue
		}
		out = append(out, *sess)
		if len(out) == limit {
			break
		}
	}
	return out
}

// Bounds on the two lengths a client chooses, per process. validate
// builds the noisy prefix graph by graph before it answers, and a session
// holds a worker for max_rounds rounds, so both are checked before any
// adversary is built. 4n is the longest horizon a family picks for itself
// (tinterval); 32n is over twice the largest automatic round bound (12n,
// or a 4n prefix + 2n + 5). A tcp session builds n(n-1) stream ends, each
// with a reader goroutine and a 64 KiB read buffer: measured on loopback,
// one mesh holds 15 MB of heap at n = 16 and 63 MB at n = 32, and takes
// n(n-1) descriptors. maxTCPN caps that; udp and in-proc go to MaxN.
const (
	maxNoisyPerN  = 4
	maxRoundsPerN = 32
	maxTCPN       = 32
)

// validate normalizes and checks spec and returns the adversary it
// built on the way — the one the session then runs.
func (s *Service) validate(spec *SessionSpec) (rounds.Adversary, error) {
	if spec.Family == "figure1" {
		if spec.N == 0 {
			spec.N = 6
		}
		if spec.N != 6 {
			return nil, fmt.Errorf("family figure1 fixes n = 6, got %d", spec.N)
		}
	}
	if spec.N < 1 || spec.N > s.cfg.MaxN {
		return nil, fmt.Errorf("n = %d out of range [1,%d]", spec.N, s.cfg.MaxN)
	}
	if spec.Noisy < 0 || spec.Noisy > maxNoisyPerN*spec.N {
		return nil, fmt.Errorf("noisy = %d out of range [0,%d] for n = %d", spec.Noisy, maxNoisyPerN*spec.N, spec.N)
	}
	if spec.MaxRounds < 0 || spec.MaxRounds > maxRoundsPerN*spec.N {
		return nil, fmt.Errorf("max_rounds = %d out of range [0,%d] for n = %d", spec.MaxRounds, maxRoundsPerN*spec.N, spec.N)
	}
	if spec.Proposals != nil && len(spec.Proposals) != spec.N {
		return nil, fmt.Errorf("%d proposals for n = %d", len(spec.Proposals), spec.N)
	}
	switch spec.Transport {
	case "", "inproc", "udp":
	case "tcp":
		if spec.N > maxTCPN {
			return nil, fmt.Errorf("n = %d out of range [1,%d] for transport tcp", spec.N, maxTCPN)
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", spec.Transport)
	}
	alg, err := algo.Lookup(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	spec.Algorithm = alg.Name
	if alg.Name != algo.Approx && (spec.Vertices != 0 || spec.Cycle) {
		return nil, fmt.Errorf("vertices/cycle apply only to algorithm %q", algo.Approx)
	}
	if alg.Name != algo.KSet && spec.FaithfulGuard {
		return nil, fmt.Errorf("faithful_guard applies only to algorithm %q", algo.KSet)
	}
	adv, err := buildAdversary(*spec)
	if err != nil {
		return nil, err
	}
	// A full dry resolve catches the family-specific problems (approx
	// proposals outside the vertex range, bad graph sizes) at submission
	// time, where the client gets a positional error instead of a failed
	// session.
	dry := sessionSimSpec(*spec, adv, nil)
	if err := dry.Resolve(); err != nil {
		return nil, err
	}
	return adv, nil
}

// sessionSimSpec assembles the sim.Spec a session executes: the family
// name and its session-configured params, the proposal vector, and the
// caller's runner (nil for submission-time dry resolution).
func sessionSimSpec(spec SessionSpec, adv rounds.Adversary, runner func(rounds.Config) (*rounds.Result, error)) sim.Spec {
	props := spec.Proposals
	if props == nil {
		props = sim.SeqProposals(spec.N)
	}
	out := sim.Spec{
		Adversary: adv,
		Proposals: props,
		Algorithm: spec.Algorithm,
		MaxRounds: spec.MaxRounds,
		Runner:    runner,
	}
	switch spec.Algorithm {
	case algo.Approx:
		shape := approx.Path
		if spec.Cycle {
			shape = approx.Cycle
		}
		out.Params = approx.Options{Graph: approx.Graph{Shape: shape, V: spec.Vertices}}
	default:
		out.Params = core.Options{ConservativeDecide: !spec.FaithfulGuard}
	}
	return out
}

// buildAdversary maps a session spec onto the adversary catalogue.
func buildAdversary(spec SessionSpec) (rounds.Adversary, error) {
	n := spec.N
	// Only the two families that draw from it pay for a generator.
	rng := func() *rand.Rand { return rand.New(rand.NewSource(spec.Seed)) }
	if spec.Roots < 0 || spec.Roots > n {
		return nil, fmt.Errorf("roots = %d out of range [0,%d]", spec.Roots, n)
	}
	roots := max(spec.Roots, 1)
	switch spec.Family {
	case "complete":
		return adversary.Complete(n), nil
	case "rooted":
		return adversary.RandomSources(n, roots, spec.Noisy, 0.25, rng()), nil
	case "single_source":
		return adversary.RandomSingleSource(n, spec.Noisy, 0.2, 0.2, rng()), nil
	case "lowerbound":
		k := spec.K
		if k == 0 {
			k = max(1, n/2)
		}
		if k < 1 || k > n {
			return nil, fmt.Errorf("lowerbound k = %d out of range [1,%d]", k, n)
		}
		if k == n {
			return adversary.Isolation(n), nil
		}
		if k == 1 {
			return adversary.Complete(n), nil
		}
		return adversary.LowerBound(n, k), nil
	case "eventual":
		return adversary.Eventual(adversary.Complete(n), spec.Noisy), nil
	case "tinterval":
		return adversary.NewTInterval(n, 4, 4*n, min(3, n), spec.Seed), nil
	case "partition_merge":
		return adversary.NewPartitionMerge(n, min(4, n), 2, spec.Seed), nil
	case "vertex_stable":
		return adversary.NewVertexStableRoot(n, max(1, n/4), 0.3, spec.Seed), nil
	case "figure1":
		return adversary.Figure1(), nil
	case "":
		return nil, fmt.Errorf("missing adversary family")
	default:
		return nil, fmt.Errorf("unknown adversary family %q", spec.Family)
	}
}

// worker executes queued sessions until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case sess := <-s.queue:
			s.execute(sess)
		case <-s.stop:
			return
		}
	}
}

// execute runs one session over the distributed runtime and records the
// outcome. When Config.SessionTimeout is set, a watchdog arms for the
// duration of the run: firing tears the session's transport down (the
// run ends with ErrClosed within a round) and the session terminates as
// "crashed" with the partial outcome the watchdog observed — so one
// wedged session can never pin a worker forever.
func (s *Service) execute(sess *Session) {
	s.mu.Lock()
	sess.Status = "running"
	adv := sess.adv
	sess.adv = nil
	s.mu.Unlock()
	s.met.running.Add(1)
	defer s.met.running.Add(-1)

	lr := newLiveRun(sess.Spec.N)
	if d := s.cfg.SessionTimeout; d > 0 {
		timer := time.AfterFunc(d, lr.kill)
		defer timer.Stop()
	}
	am := s.met.algoFamily(sess.Spec.Algorithm)
	out, err := runSession(sess.Spec, adv, lr, &s.stall)
	if err != nil {
		if lr.killed() {
			s.met.crashed.Add(1)
			am.crashed.Add(1)
			s.terminate(sess, "crashed", lr.partial(),
				fmt.Sprintf("watchdog: session exceeded %v deadline", s.cfg.SessionTimeout))
			return
		}
		am.failed.Add(1)
		s.finish(sess, nil, err)
		return
	}
	res := &SessionResult{
		Decisions:  out.Decisions,
		Decided:    out.Decided,
		Distinct:   out.DistinctDecisions(),
		MinK:       out.MinK,
		Rounds:     out.Rounds,
		RST:        out.RST,
		AllDecided: out.CheckTermination() == nil,
	}
	// The agreement-bound verdict is the family's own oracle: for kset,
	// |Distinct| <= MinK; for approx, decisions pairwise adjacent on the
	// target graph inside the claimed regime.
	res.KBound = out.AgreementHolds()
	if !res.KBound {
		s.met.kboundViolations.Add(1)
	}
	s.met.roundsTotal.Add(int64(out.Rounds))
	s.met.decisionsTotal.Add(int64(len(res.Distinct)))
	am.completed.Add(1)
	am.rounds.Add(int64(out.Rounds))
	am.decisions.Add(int64(len(res.Distinct)))
	s.finish(sess, res, nil)
}

// runSession executes one spec, under the adversary validation built
// from it, over the runtime (sessions are real distributed executions,
// not simulator calls — the sim package here only supplies the
// measurement pipeline around runtime.NewRunner). lr
// observes the run for the watchdog (partial outcomes, transport
// teardown handle); counters tallies the senders a udp session's
// deadline-closed rounds gave up on into the service's /metrics (in-proc
// and tcp sessions close rounds by count: there is nothing to tally). A
// panic in one of the session's processes — the runtime re-raises it
// here, with its value and with the run torn down — is the session's
// error, not the service's end: one bad session must not take every
// other with it.
func runSession(spec SessionSpec, adv rounds.Adversary, lr *liveRun, counters *transport.StallCounters) (out *sim.Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			out, err = nil, fmt.Errorf("%v", v)
		}
	}()
	ropts := runtime.RunnerOpts{
		Kind: spec.Transport, Algorithm: spec.Algorithm, OnTransport: lr.onTransport,
		// Read by udp sessions only. Sessions favor fidelity over round
		// latency, so that results stay replayable in practice.
		UDP: runtime.QuietLoopbackUDP(),
	}
	ropts.UDP.Counters = counters
	simSpec := sessionSimSpec(spec, adv, runtime.NewRunner(ropts))
	simSpec.Observer = lr
	return sim.Execute(simSpec)
}

// liveRun is the watchdog's view of one executing session: it observes
// every completed round (rounds.Observer, called at the runtime's
// quiescent point) so a crashed session can flush the
// outcome it reached, and it holds the transport handle so the watchdog
// verdict can tear the run down.
type liveRun struct {
	mu       sync.Mutex
	tr       transport.Transport
	dead     bool
	rounds   int
	decided  []bool
	decision []int64
}

func newLiveRun(n int) *liveRun {
	return &liveRun{decided: make([]bool, n), decision: make([]int64, n)}
}

// onTransport is the RunnerOpts hook: it stashes the run's transport
// for the watchdog. A watchdog that fired before the transport existed
// (a session wedged in mesh construction) kills it on arrival.
func (lr *liveRun) onTransport(tr transport.Transport) {
	lr.mu.Lock()
	lr.tr = tr
	dead := lr.dead
	lr.mu.Unlock()
	if dead {
		tr.Close()
	}
}

// OnRound implements rounds.Observer: snapshot the decision state after
// every completed round. Runs on the runtime's caller while no process
// is being stepped, so reading the Deciders is race-free.
func (lr *liveRun) OnRound(r int, _ *graph.Digraph, procs []rounds.Algorithm) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.rounds = r
	for i, p := range procs {
		if d, ok := p.(rounds.Decider); ok && d.Decided() {
			lr.decided[i] = true
			lr.decision[i], _ = d.Decision()
		}
	}
}

// kill is the watchdog verdict: mark the session crashed and tear its
// transport down, which wakes every parked Gather with ErrClosed.
func (lr *liveRun) kill() {
	lr.mu.Lock()
	lr.dead = true
	tr := lr.tr
	lr.mu.Unlock()
	if tr != nil {
		tr.Close()
	}
}

// killed reports whether the watchdog fired.
func (lr *liveRun) killed() bool {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.dead
}

// partial flushes the last fully-observed round into a crashed
// session's result.
func (lr *liveRun) partial() *SessionResult {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	res := &SessionResult{
		Partial:   true,
		Rounds:    lr.rounds,
		Decisions: append([]int64(nil), lr.decision...),
		Decided:   append([]bool(nil), lr.decided...),
	}
	seen := map[int64]bool{}
	for i, d := range lr.decided {
		if d && !seen[lr.decision[i]] {
			seen[lr.decision[i]] = true
			res.Distinct = append(res.Distinct, lr.decision[i])
		}
	}
	sort.Slice(res.Distinct, func(i, j int) bool { return res.Distinct[i] < res.Distinct[j] })
	return res
}

// finish records a session's terminal state and applies the retention
// bound, evicting the oldest finished sessions beyond Config.Retain.
func (s *Service) finish(sess *Session, res *SessionResult, err error) {
	if err != nil {
		s.terminate(sess, "failed", nil, err.Error())
		s.met.failed.Add(1)
		return
	}
	s.terminate(sess, "done", res, "")
	s.met.completed.Add(1)
}

// terminate moves a session to a terminal status (done, failed, or
// crashed) and evicts the oldest finished sessions beyond Config.Retain.
func (s *Service) terminate(sess *Session, status string, res *SessionResult, errMsg string) {
	s.mu.Lock()
	sess.Status, sess.Result, sess.Error = status, res, errMsg
	s.finished = append(s.finished, sess.ID)
	for len(s.finished) > s.cfg.Retain {
		victim := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.sessions, victim)
	}
	s.mu.Unlock()
}
