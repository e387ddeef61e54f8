package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kset/internal/adversary"
)

// udpTestOpts gives correctness tests a round deadline far beyond any
// plausible scheduler stall, so the deadline-closure path only fires
// when a test *wants* loss (via DropDatagram): on a quiet loopback with
// megabyte socket buffers, real loss in a short test is then
// effectively impossible, and delivery assertions can be exact.
func udpTestOpts() UDPOpts {
	return UDPOpts{RoundTimeout: 5 * time.Second, Grace: 10 * time.Millisecond}
}

func TestUDPPerfectDeliversEverything(t *testing.T) {
	for _, tc := range []struct{ n, nodes int }{{4, 4}, {5, 2}, {6, 3}} {
		t.Run(fmt.Sprintf("n%d-nodes%d", tc.n, tc.nodes), func(t *testing.T) {
			tr, err := NewUDPMeshLoopback(tc.n, tc.nodes, nil, udpTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			heard := driveRun(t, tr, 6)
			for r := range heard {
				for q := 0; q < tc.n; q++ {
					for p := 0; p < tc.n; p++ {
						if !heard[r][q][p] {
							t.Fatalf("round %d: p%d never heard p%d on a perfect transport", r+1, q+1, p+1)
						}
					}
				}
			}
		})
	}
}

// bigPayloadFor is a deterministic multi-fragment payload: large enough
// to span many datagrams, patterned so any misplaced fragment shows up
// as corruption.
func bigPayloadFor(p, r, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*131 + p*31 + r*7)
	}
	return b
}

// TestUDPFragmentationRoundTrip forces every frame across many
// datagrams (tiny maxDatagram, kilobyte payloads) and requires exact
// reassembly in every round — out-of-order and interleaved fragments
// from all peers included.
func TestUDPFragmentationRoundTrip(t *testing.T) {
	const n, rounds, size = 3, 6, 2000
	opts := udpTestOpts()
	opts.maxDatagram = minUDPDatagram // chunk of 64 bytes -> ~32 fragments per frame
	tr, err := NewUDPMeshLoopback(n, n, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

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
				if err := ep.Broadcast(r, bigPayloadFor(self, r, size+self*97)); err != nil {
					errs[self] = err
					return
				}
				recv, err := ep.Gather(r, buf)
				if err != nil {
					errs[self] = err
					return
				}
				buf = recv
				for p := 0; p < n; p++ {
					want := bigPayloadFor(p, r, size+p*97)
					if !bytes.Equal(recv[p], want) {
						errs[self] = fmt.Errorf("round %d: p%d reassembled %d bytes from p%d incorrectly",
							r, self+1, len(recv[p]), p+1)
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
	// Every fragment was valid traffic: none may have been miscounted as
	// a bad datagram (reader loops are quiesced once Close returns).
	tr.Close()
	for _, un := range tr.dl.nodes {
		if un.badDgrams != 0 {
			t.Fatalf("node %d rejected %d datagrams of well-formed fragmented traffic", un.nd.id, un.badDgrams)
		}
	}
}

// driveLockstep drives all n endpoints from one goroutine in
// barrier-synchronized rounds: every process broadcasts round r before
// any process gathers it. Loss tests need this shape — in a
// barrier-free run one deadline stall delays that process's *next*
// broadcast past everyone else's deadline, cascading one injected loss
// into arbitrary extra absences. (The runtime's round barrier gives real
// runs the same lockstep property.) Returns heard[r-1][q][p] like
// driveRun.
func driveLockstep(t *testing.T, tr Transport, rounds int) [][][]bool {
	t.Helper()
	n := tr.N()
	eps := make([]Endpoint, n)
	for i := range eps {
		ep, err := tr.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	heard := make([][][]bool, rounds)
	bufs := make([][][]byte, n)
	for r := 1; r <= rounds; r++ {
		heard[r-1] = make([][]bool, n)
		for _, ep := range eps {
			if err := ep.Broadcast(r, payloadFor(ep.Self(), r)); err != nil {
				t.Fatalf("round %d broadcast p%d: %v", r, ep.Self()+1, err)
			}
		}
		for q, ep := range eps {
			recv, err := ep.Gather(r, bufs[q])
			if err != nil {
				t.Fatalf("round %d gather p%d: %v", r, q+1, err)
			}
			bufs[q] = recv
			heard[r-1][q] = make([]bool, n)
			for p := 0; p < n; p++ {
				if recv[p] == nil {
					continue
				}
				heard[r-1][q][p] = true
				if want := payloadFor(p, r); !bytes.Equal(recv[p], want) {
					t.Fatalf("round %d: p%d got %q from p%d, want %q", r, q+1, recv[p], p+1, want)
				}
			}
		}
	}
	return heard
}

// TestUDPRealLossIsAbsence kills specific datagrams on the wire (no
// tombstone, nothing for the receiver to parse) and requires the
// deadline+grace closure rule to convert exactly those absences into
// nil deliveries while every untouched link still delivers.
func TestUDPRealLossIsAbsence(t *testing.T) {
	const n, rounds = 3, 4
	lost := func(r, from, to int) bool {
		return (r == 2 && from == 2 && to == 0) || (r == 3 && from == 0 && to == 1)
	}
	opts := UDPOpts{
		RoundTimeout: 30 * time.Millisecond,
		Grace:        2 * time.Millisecond,
		DropDatagram: func(r, from, to, frag int) bool { return lost(r, from, to) },
	}
	tr, err := NewUDPMeshLoopback(n, n, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	heard := driveLockstep(t, tr, rounds)
	for r := 1; r <= rounds; r++ {
		for q := 0; q < n; q++ {
			for p := 0; p < n; p++ {
				want := !lost(r, p, q)
				if got := heard[r-1][q][p]; got != want {
					t.Fatalf("round %d: heard[p%d][p%d] = %v, want %v", r, q+1, p+1, got, want)
				}
			}
		}
	}
}

// TestStallsCountedWithoutDetector: the Stalls counter is what a deadline
// closure gave up on, not what a stall detector saw — with DeadAfter 0
// (ksetd's UDP sessions) there is no detector, and a lost frame must still
// count once per (round, sender) pair its receivers closed without.
func TestStallsCountedWithoutDetector(t *testing.T) {
	const n, rounds = 4, 5
	var counters StallCounters
	opts := UDPOpts{
		RoundTimeout: 30 * time.Millisecond,
		Grace:        2 * time.Millisecond,
		Counters:     &counters,
		// Node 0's round-3 frame to node 1 never arrives.
		DropDatagram: func(r, from, to, frag int) bool { return r == 3 && from == 0 && to == 1 },
	}
	tr, err := NewUDPMeshLoopback(n, 2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	missing := 0
	for _, round := range driveLockstep(t, tr, rounds) {
		for _, heardBy := range round {
			for _, heard := range heardBy {
				if !heard {
					missing++
				}
			}
		}
	}
	if missing != 4 { // p3 and p4 each closed round 3 without p1 and p2
		t.Fatalf("%d (round, sender) pairs closed missing, want 4", missing)
	}
	if got := counters.Stalls.Load(); got != int64(missing) {
		t.Errorf("Stalls = %d with DeadAfter 0, want %d", got, missing)
	}
	if dead := counters.Dead.Load(); dead != 0 {
		t.Errorf("Dead = %d with no detector", dead)
	}
}

// TestUDPMeterRecordsRealizedHeardSets runs injected Policy drops and
// real wire loss together and requires the meter's per-round graphs to
// equal exactly what the processes actually received — the ground truth
// the loss-replay differential mode depends on.
func TestUDPMeterRecordsRealizedHeardSets(t *testing.T) {
	const n, seed = 4, 11
	rng := rand.New(rand.NewSource(seed))
	run := adversary.RandomRun(n, 4, rng)
	rounds := run.PrefixLen() + 2
	meter := NewHeardMeter(n)
	opts := udpTestOpts()
	opts.RoundTimeout = 50 * time.Millisecond
	opts.Grace = 2 * time.Millisecond
	opts.Meter = meter
	opts.DropDatagram = func(r, from, to, frag int) bool {
		return r == 1 && from == n-1 && to == 0
	}
	tr, err := NewUDPMeshLoopback(n, n, NewSchedule(run), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	heard := driveLockstep(t, tr, rounds)
	graphs := meter.Graphs()
	if len(graphs) != rounds {
		t.Fatalf("meter recorded %d rounds, want %d", len(graphs), rounds)
	}
	for r := 1; r <= rounds; r++ {
		g := graphs[r-1]
		for q := 0; q < n; q++ {
			for p := 0; p < n; p++ {
				if got, want := g.HasEdge(p, q), heard[r-1][q][p]; got != want {
					t.Fatalf("round %d: meter edge p%d->p%d = %v, heard = %v", r, p+1, q+1, got, want)
				}
			}
		}
	}
}

// TestUDPReasmHardening drives the fragment reassembler directly with
// hostile inputs: oversized fragment counts, inconsistent headers,
// duplicates, stale rounds, and wrong fragment sizes must all be
// rejected without completing a frame or growing state beyond the
// transport-derived bound.
func TestUDPReasmHardening(t *testing.T) {
	const chunk, open = 64, 1<<31 - 1 // open: the mailbox would place any round
	ra := newUDPReasm(1, 2, 3, chunk)
	full := make([]byte, chunk)

	if _, ok := ra.place(udpHeader{from: 1, round: 1, fragIdx: 0, fragCount: ra.maxFrags + 1}, full, open); ok {
		t.Fatal("fragCount beyond the frame limit was accepted")
	}
	if _, ok := ra.place(udpHeader{from: 1, round: 1, fragIdx: 0, fragCount: 2}, full[:10], open); ok {
		t.Fatal("short non-final fragment was accepted")
	}
	if _, ok := ra.place(udpHeader{from: 1, round: 1, fragIdx: 1, fragCount: 2}, nil, open); ok {
		t.Fatal("empty final fragment was accepted")
	}

	// Legitimate two-fragment frame, arriving out of order.
	if body, ok := ra.place(udpHeader{from: 1, round: 1, fragIdx: 1, fragCount: 2}, full[:10], open); !ok || body != nil {
		t.Fatalf("first fragment: body %v ok %v, want nil true", body, ok)
	}
	// Mid-reassembly inconsistencies.
	if _, ok := ra.place(udpHeader{from: 1, round: 1, fragIdx: 0, fragCount: 3}, full, open); ok {
		t.Fatal("fragCount flip mid-round was accepted")
	}
	if _, ok := ra.place(udpHeader{from: 1, round: 1, fragIdx: 1, fragCount: 2}, full[:10], open); ok {
		t.Fatal("duplicate fragment was accepted")
	}
	body, ok := ra.place(udpHeader{from: 1, round: 1, fragIdx: 0, fragCount: 2}, full, open)
	if !ok || len(body) != chunk+10 {
		t.Fatalf("completed frame: %d bytes ok %v, want %d true", len(body), ok, chunk+10)
	}
	// The completed round rejects replays; older rounds are stale once
	// the ring has moved on.
	if _, ok := ra.place(udpHeader{from: 1, round: 1, fragIdx: 0, fragCount: 2}, full, open); ok {
		t.Fatal("replayed fragment of a completed round was accepted")
	}
	if _, ok := ra.place(udpHeader{from: 1, round: 1 + window, fragIdx: 0, fragCount: 1}, full[:5], open); !ok {
		t.Fatal("new round reusing the ring slot was rejected")
	}
	if _, ok := ra.place(udpHeader{from: 1, round: 1, fragIdx: 0, fragCount: 2}, full, open); ok {
		t.Fatal("stale round was accepted after the slot moved on")
	}

	// A round the node's mailbox could not place claims no slot: the
	// later rounds of its residue stay placeable.
	ra = newUDPReasm(1, 2, 3, chunk)
	if _, ok := ra.place(udpHeader{from: 1, round: 1<<31 - 1, fragIdx: 0, fragCount: 1}, full[:5], 2); ok {
		t.Fatal("a round past the mailbox's window was accepted")
	}
	for _, r := range []int{3, 7} {
		if body, ok := ra.place(udpHeader{from: 1, round: r, fragIdx: 0, fragCount: 1}, full[:5], r); !ok || len(body) != 5 {
			t.Fatalf("round %d after a far-future one: %d bytes ok %v, want 5 true", r, len(body), ok)
		}
	}
}

// TestForgedRoundStallsNothing: one datagram from the peer node's own
// socket whose header names a far-future round — 2^31-1, which shares
// round 3's reassembly slot — must cost no round anything. Were it to
// claim that slot, every later round of the residue would read as stale
// and close by deadline without the peer.
func TestForgedRoundStallsNothing(t *testing.T) {
	var counters StallCounters
	tr, err := NewUDPMeshLoopback(2, 2, nil, UDPOpts{
		RoundTimeout: 30 * time.Millisecond,
		Grace:        2 * time.Millisecond,
		Counters:     &counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	forged := appendUDPHeader(nil, udpHeader{from: 1, round: 1<<31 - 1, fragIdx: 0, fragCount: 1})
	forged = append(forged, 0) // a 1x1 frame body: one bitmap byte, a tombstone
	if _, err := tr.dl.nodes[1].conn.WriteToUDPAddrPort(forged, tr.dl.addrs[0]); err != nil {
		t.Fatal(err)
	}
	driveLockstep(t, tr, 4*window)
	if got := counters.Stalls.Load(); got != 0 {
		t.Fatalf("Stalls = %d after one forged datagram, want 0", got)
	}
}
