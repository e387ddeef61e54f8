package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/graph"
)

// payloadFor is the test payload of process p in round r: enough bytes
// to detect cross-link corruption or round misalignment.
func payloadFor(p, r int) []byte {
	return []byte(fmt.Sprintf("p%d/r%d", p, r))
}

// driveRun runs n goroutines (one per endpoint) for the given number of
// rounds with no control barrier — the rawest legal use of the transport
// contract — and returns heard[r-1][q][p] = true iff q received p's
// round-r payload. Payload integrity is verified inline.
func driveRun(t *testing.T, tr Transport, rounds int) [][][]bool {
	t.Helper()
	return driveRunSkewed(t, tr, rounds, 0)
}

// driveRunSkewed is driveRun with every process sleeping a hash of
// (skewSeed, process, round) in [0, 300µs) before each broadcast (0: no
// sleep). With no barrier between them the fast processes run a round
// ahead of the slow ones, into the mailboxes' window.
func driveRunSkewed(t *testing.T, tr Transport, rounds int, skewSeed int64) [][][]bool {
	t.Helper()
	n := tr.N()
	heard := make([][][]bool, rounds)
	for r := range heard {
		heard[r] = make([][]bool, n)
		for q := range heard[r] {
			heard[r][q] = make([]bool, n)
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(self int) {
			defer wg.Done()
			ep, err := tr.Endpoint(self)
			if err != nil {
				errs[self] = err
				return
			}
			var buf [][]byte
			for r := 1; r <= rounds; r++ {
				if skewSeed != 0 {
					h := mix64(uint64(skewSeed) ^ uint64(r)*0x9e3779b97f4a7c15 ^ uint64(self)<<32)
					time.Sleep(time.Duration(h % uint64(300*time.Microsecond)))
				}
				if err := ep.Broadcast(r, payloadFor(self, r)); err != nil {
					errs[self] = fmt.Errorf("round %d broadcast: %w", r, err)
					return
				}
				recv, err := ep.Gather(r, buf)
				if err != nil {
					errs[self] = fmt.Errorf("round %d gather: %w", r, err)
					return
				}
				buf = recv
				for p := 0; p < n; p++ {
					if recv[p] == nil {
						continue
					}
					heard[r-1][self][p] = true
					if want := payloadFor(p, r); !bytes.Equal(recv[p], want) {
						errs[self] = fmt.Errorf("round %d: p%d got %q from p%d, want %q",
							r, self+1, recv[p], p+1, want)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process p%d: %v", i+1, err)
		}
	}
	return heard
}

func TestInProcPerfectDeliversEverything(t *testing.T) {
	n, rounds := 5, 8
	tr := NewInProc(n, nil)
	defer tr.Close()
	heard := driveRun(t, tr, rounds)
	for r := range heard {
		for q := 0; q < n; q++ {
			for p := 0; p < n; p++ {
				if !heard[r][q][p] {
					t.Fatalf("round %d: p%d never heard p%d on a perfect transport", r+1, q+1, p+1)
				}
			}
		}
	}
}

func TestTCPPerfectDeliversEverything(t *testing.T) {
	n, rounds := 4, 6
	tr, err := NewTCPMeshLoopbackOpts(n, n, nil, TCPOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	heard := driveRun(t, tr, rounds)
	for r := range heard {
		for q := 0; q < n; q++ {
			for p := 0; p < n; p++ {
				if !heard[r][q][p] {
					t.Fatalf("round %d: p%d never heard p%d on a perfect transport", r+1, q+1, p+1)
				}
			}
		}
	}
}

// TestScheduleDropsMatchHeardSets is the loss-injection property test:
// running a transport under a Schedule policy, its free-running processes
// skewed against each other by seeded sleeps, must yield, in every round,
// exactly the heard-sets the adversary's round graphs prescribe — no lost
// payloads beyond the schedule, no leaks through dropped links, and skew
// that moves timing but never membership.
//
// On the reliable transports (in-proc, TCP) the assertion is strict
// equality, and must stay strict so the lossy relaxation below can
// never mask a regression there. On the best-effort UDP mesh the
// network may legitimately lose datagrams, so equality splits into the
// two directions that remain guaranteed:
//
//   - no leaks: realized heard-sets ⊆ scheduled edge sets (plus
//     unconditional self-delivery) — loss can only shrink a round;
//   - the Policy-guaranteed floor: deliveries that never cross the
//     socket (self, and scheduled links between co-located processes)
//     are reliable even on UDP, so they must always be heard.
func TestScheduleDropsMatchHeardSets(t *testing.T) {
	kinds := []struct {
		name  string
		nodes func(n int) int // mesh nodes (0 = n, fully distributed)
		lossy bool
		make  func(n int, pol Policy) (Transport, error)
	}{
		{name: "inproc", make: func(n int, pol Policy) (Transport, error) { return NewInProc(n, pol), nil }},
		{name: "tcp", make: func(n int, pol Policy) (Transport, error) { return NewTCPMeshLoopbackOpts(n, n, pol, TCPOpts{}) }},
		// Grouped meshes exercise the coalesced frame path: multiple
		// senders per v2 frame, drop bitmaps folding tombstones, local
		// and remote receivers of the same broadcast.
		{name: "tcp-nodes2", nodes: func(n int) int { return min(2, n) },
			make: func(n int, pol Policy) (Transport, error) {
				return NewTCPMeshLoopbackOpts(n, min(2, n), pol, TCPOpts{})
			}},
		{name: "tcp-nodes3", nodes: func(n int) int { return min(3, n) },
			make: func(n int, pol Policy) (Transport, error) {
				return NewTCPMeshLoopbackOpts(n, min(3, n), pol, TCPOpts{})
			}},
		{name: "udp", lossy: true,
			make: func(n int, pol Policy) (Transport, error) { return NewUDPMeshLoopback(n, n, pol, udpTestOpts()) }},
		{name: "udp-nodes2", nodes: func(n int) int { return min(2, n) }, lossy: true,
			make: func(n int, pol Policy) (Transport, error) {
				return NewUDPMeshLoopback(n, min(2, n), pol, udpTestOpts())
			}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(5)
				run := adversary.RandomRun(n, 3+rng.Intn(4), rng)
				rounds := run.PrefixLen() + 3
				pol := NewSchedule(run)
				tr, err := kind.make(n, pol)
				if err != nil {
					t.Fatal(err)
				}
				heard := driveRunSkewed(t, tr, rounds, seed)
				tr.Close()
				m := n
				if kind.nodes != nil {
					m = kind.nodes(n)
				}
				// node(p) inverts the meshes' contiguous balanced
				// partition nodeLo(i) = i*n/m.
				node := func(p int) int { return ((p+1)*m - 1) / n }
				sameNode := func(p, q int) bool { return node(p) == node(q) }
				for r := 1; r <= rounds; r++ {
					rows := policyRows(pol, r, n)
					for q := 0; q < n; q++ {
						for p := 0; p < n; p++ {
							sched := rows[p].Has(q) || p == q
							got := heard[r-1][q][p]
							if got && !sched {
								t.Fatalf("seed %d n %d round %d: p%d heard p%d through a dropped link",
									seed, n, r, q+1, p+1)
							}
							guaranteed := sched && (!kind.lossy || p == q || sameNode(p, q))
							if guaranteed && !got {
								t.Fatalf("seed %d n %d round %d: heard[p%d][p%d] = false, but delivery is guaranteed",
									seed, n, r, q+1, p+1)
							}
							if !kind.lossy && got != sched {
								t.Fatalf("seed %d n %d round %d: heard[p%d][p%d] = %v, schedule says %v",
									seed, n, r, q+1, p+1, got, sched)
							}
						}
					}
				}
			}
		})
	}
}

// TestEmptyPayloadIsDelivered: Gather reads nil as "the link did not
// deliver", so a delivered payload must be non-nil whatever its length —
// on the in-memory path and out of a decoded frame — and nil exactly on
// the links the policy drops. (A pooled buffer that had never carried
// bytes used to turn a delivered empty payload into nil.)
func TestEmptyPayloadIsDelivered(t *testing.T) {
	const n, rounds = 4, 2 * window
	cut := graph.CompleteDigraph(n)
	cut.RemoveEdge(0, 1) // inside node 0 of the 2-node mesh
	cut.RemoveEdge(3, 0) // across its nodes
	policies := map[string]Policy{"perfect": nil, "schedule": NewSchedule(adversary.Static(cut))}
	meshes := map[string]func(Policy) (Transport, error){
		"inproc":     func(pol Policy) (Transport, error) { return NewInProc(n, pol), nil },
		"tcp-nodes2": func(pol Policy) (Transport, error) { return NewTCPMeshLoopbackOpts(n, 2, pol, TCPOpts{}) },
	}
	for mesh, mk := range meshes {
		for name, pol := range policies {
			t.Run(mesh+"/"+name, func(t *testing.T) {
				tr, err := mk(pol)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				eps := make([]Endpoint, n)
				for i := range eps {
					if eps[i], err = tr.Endpoint(i); err != nil {
						t.Fatal(err)
					}
				}
				for r := 1; r <= rounds; r++ {
					rows := policyRows(pol, r, n)
					for _, ep := range eps {
						if err := ep.Broadcast(r, []byte{}); err != nil {
							t.Fatal(err)
						}
					}
					for q, ep := range eps {
						recv, err := ep.Gather(r, nil)
						if err != nil {
							t.Fatal(err)
						}
						for p, payload := range recv {
							delivered := p == q || rows[p].Has(q)
							if (payload != nil) != delivered || len(payload) != 0 {
								t.Fatalf("round %d, link p%d -> p%d: got %v, delivered = %v", r, p+1, q+1, payload, delivered)
							}
						}
					}
				}
			})
		}
	}
}

// policyRows is round r of pol in row form: rows[p] is pol's answer for
// p's round-r message, the lossless one for a nil pol.
func policyRows(pol Policy, r, n int) []graph.NodeSet {
	rows := make([]graph.NodeSet, n)
	for p := range rows {
		if pol == nil {
			rows[p] = graph.FullNodeSet(n)
			continue
		}
		rows[p] = graph.NewNodeSet(n)
		pol.Deliver(r, p, rows[p])
	}
	return rows
}

// countingPolicy is a Schedule that counts the questions it is asked, per
// (round, sender).
type countingPolicy struct {
	Schedule
	mu    *sync.Mutex
	calls map[[2]int]int
}

func newCountingPolicy(pol Schedule) countingPolicy {
	return countingPolicy{Schedule: pol, mu: new(sync.Mutex), calls: map[[2]int]int{}}
}

func (p countingPolicy) Deliver(r, from int, to graph.NodeSet) {
	p.mu.Lock()
	p.calls[[2]int{r, from}]++
	p.mu.Unlock()
	p.Schedule.Deliver(r, from, to)
}

// TestPolicyIsAskedOncePerSenderAndRound: who hears a sender's round-r
// message is decided once, at its Broadcast. Its co-hosted receivers and
// its node's ship read that one row, so a round costs n questions
// whatever the mesh's shape — never one per link, never one per frame.
func TestPolicyIsAskedOncePerSenderAndRound(t *testing.T) {
	const n, rounds = 6, 2 * window
	g := graph.CompleteDigraph(n)
	g.RemoveEdge(0, 1)
	g.RemoveEdge(5, 0)
	meshes := map[string]func(Policy) (Transport, error){
		"inproc":     func(pol Policy) (Transport, error) { return NewInProc(n, pol), nil },
		"tcp-nodes2": func(pol Policy) (Transport, error) { return NewTCPMeshLoopbackOpts(n, 2, pol, TCPOpts{}) },
		"tcp":        func(pol Policy) (Transport, error) { return NewTCPMeshLoopbackOpts(n, n, pol, TCPOpts{}) },
		"udp-nodes2": func(pol Policy) (Transport, error) { return NewUDPMeshLoopback(n, 2, pol, udpTestOpts()) },
	}
	for name, mk := range meshes {
		t.Run(name, func(t *testing.T) {
			pol := newCountingPolicy(NewSchedule(adversary.Static(g)))
			tr, err := mk(pol)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			driveLockstep(t, tr, rounds)
			pol.mu.Lock()
			defer pol.mu.Unlock()
			for r := 1; r <= rounds; r++ {
				for from := 0; from < n; from++ {
					if got := pol.calls[[2]int{r, from}]; got != 1 {
						t.Errorf("round %d: asked %d times about p%d's message, want once", r, got, from+1)
					}
				}
			}
			if len(pol.calls) != rounds*n {
				t.Errorf("asked about %d (round, sender) pairs, want %d", len(pol.calls), rounds*n)
			}
		})
	}
}

func TestEndpointDoubleClaim(t *testing.T) {
	tr := NewInProc(2, nil)
	defer tr.Close()
	if _, err := tr.Endpoint(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Endpoint(0); err == nil {
		t.Fatal("claiming endpoint 0 twice succeeded")
	}
	if _, err := tr.Endpoint(5); err == nil {
		t.Fatal("claiming out-of-range endpoint succeeded")
	}
}

func TestCloseUnblocksGather(t *testing.T) {
	for _, kind := range []string{"inproc", "tcp", "udp"} {
		t.Run(kind, func(t *testing.T) {
			var tr Transport
			var err error
			switch kind {
			case "inproc":
				tr = NewInProc(2, nil)
			case "tcp":
				tr, err = NewTCPMeshLoopbackOpts(2, 2, nil, TCPOpts{})
				if err != nil {
					t.Fatal(err)
				}
			case "udp":
				// An hour-long deadline: only Close may end the round.
				tr, err = NewUDPMeshLoopback(2, 2, nil, UDPOpts{RoundTimeout: time.Hour, Grace: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
			}
			ep, err := tr.Endpoint(0)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := ep.Gather(1, nil) // blocks: nobody broadcasts
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			tr.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Gather after close returned %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Gather still blocked after transport close")
			}
		})
	}
}

func TestBroadcastRejectsOversizedPayload(t *testing.T) {
	tr := NewInProc(1, nil)
	defer tr.Close()
	ep, err := tr.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Broadcast(1, make([]byte, maxPayload+1)); err == nil {
		t.Fatal("oversized broadcast succeeded")
	}
}

// fakeTransport is a Transport that is not a mesh.
type fakeTransport struct{ Transport }

// TestMeteredRejectsWhatItCannotMeter pins Metered's three refusals: a
// transport that is not the mesh core, a meter sized for another n, and
// a mesh whose endpoints are already gathering unmetered.
func TestMeteredRejectsWhatItCannotMeter(t *testing.T) {
	tr := NewInProc(3, nil)
	defer tr.Close()
	if err := Metered(fakeTransport{tr}, NewHeardMeter(3)); err == nil {
		t.Error("a non-mesh transport was metered")
	}
	if err := Metered(tr, NewHeardMeter(4)); err == nil {
		t.Error("a meter for n = 4 was attached to an n = 3 mesh")
	}
	if err := Metered(tr, NewHeardMeter(3)); err != nil {
		t.Fatalf("fresh mesh: %v", err)
	}
	if _, err := tr.Endpoint(0); err != nil {
		t.Fatal(err)
	}
	if err := Metered(tr, NewHeardMeter(3)); err == nil {
		t.Error("a meter was attached after an endpoint was claimed")
	}
}

// TestHeardMeterConcurrentRecord has every receiver of a two-word
// universe record its own rows from its own goroutine, unsynchronized
// with the others, over enough rounds that they race to grow the row
// table; the graphs the meter builds afterwards must hold exactly the
// recorded edges (run it under -race).
func TestHeardMeterConcurrentRecord(t *testing.T) {
	const n, rounds = 70, 150
	heard := func(q, p, r int) bool { return q == p || (q+p*r)%3 != 0 }
	m := NewHeardMeter(n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			recv := make([][]byte, n)
			for r := 1; r <= rounds; r++ {
				for q := range recv {
					recv[q] = nil
					if heard(q, p, r) {
						recv[q] = []byte{}
					}
				}
				m.record(r, p, recv)
			}
		}(p)
	}
	wg.Wait()
	graphs := m.Graphs()
	if len(graphs) != rounds {
		t.Fatalf("%d graphs, want %d", len(graphs), rounds)
	}
	for r, g := range graphs {
		for q := 0; q < n; q++ {
			for p := 0; p < n; p++ {
				if g.HasEdge(q, p) != heard(q, p, r+1) {
					t.Fatalf("round %d: edge p%d->p%d is %v, recorded %v", r+1, q+1, p+1, g.HasEdge(q, p), heard(q, p, r+1))
				}
			}
		}
	}
}
