package transport

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// leakCheck runs fn and then requires the goroutine count to settle back
// to (at most) its starting value. Hand-rolled on runtime.NumGoroutine —
// no external leak detector — with a settle loop because reader
// goroutines unwind asynchronously after Close.
func leakCheck(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after settle\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInProcCloseLeaksNoGoroutines pins the in-process transport's
// headline property: it runs on zero goroutines of its own, so a full
// drive-and-close cycle leaves the count untouched.
func TestInProcCloseLeaksNoGoroutines(t *testing.T) {
	leakCheck(t, func() {
		tr := NewInProc(4, nil)
		driveRun(t, tr, 5)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTCPCloseLeaksNoGoroutines drives a full mesh (one node per
// process and a grouped 2-node mesh) through several rounds and
// requires every reader loop to unwind on Close.
func TestTCPCloseLeaksNoGoroutines(t *testing.T) {
	for _, nodes := range []int{4, 2} {
		leakCheck(t, func() {
			tr, err := NewTCPMeshLoopbackOpts(4, nodes, nil, TCPOpts{})
			if err != nil {
				t.Fatal(err)
			}
			driveRun(t, tr, 5)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTCPCloseWithoutTrafficLeaksNoGoroutines closes a freshly built
// mesh whose streams never carried a frame: reader loops are parked in
// Read, and Close must unwind them.
func TestTCPCloseWithoutTrafficLeaksNoGoroutines(t *testing.T) {
	leakCheck(t, func() {
		tr, err := NewTCPMeshLoopbackOpts(6, 3, nil, TCPOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTCPMeshRunsOnlyItsLoops: a node accepts its streams during set-up
// and its listener closes when set-up ends, and a node's round ships
// from the Broadcast that completes it, so a live m-node mesh runs
// exactly its m(m-1) reader loops, nothing else.
func TestTCPMeshRunsOnlyItsLoops(t *testing.T) {
	for _, m := range []int{2, 4} {
		requireMeshGoroutines(t, m*(m-1), func() (Transport, error) { return NewTCPMeshLoopbackOpts(4, m, nil, TCPOpts{}) })
	}
}

// TestUDPMeshRunsOnlyItsLoops: a live m-node datagram mesh runs one
// reader loop per node socket, nothing else.
func TestUDPMeshRunsOnlyItsLoops(t *testing.T) {
	for _, m := range []int{2, 4} {
		requireMeshGoroutines(t, m, func() (Transport, error) { return NewUDPMeshLoopback(4, m, nil, udpTestOpts()) })
	}
}

// requireMeshGoroutines builds a mesh, drives it through a few rounds and
// requires exactly want goroutines started by the transport.
func requireMeshGoroutines(t *testing.T, want int, build func() (Transport, error)) {
	t.Helper()
	leakCheck(t, func() {
		tr, err := build()
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		driveRun(t, tr, 3)
		for deadline := time.Now().Add(5 * time.Second); ; {
			got := meshGoroutines()
			if got == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines started by the transport, want %d", got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// meshGoroutines counts the live goroutines this package started.
func meshGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by kset/internal/transport."))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestTCPLostLinkStaysOneLink breaks the node 0 - node 1 stream of a
// 3-node chaos-mode mesh by hand right after set-up. The loss is one
// missing link in both directions and nothing more: every process still
// hears itself, node 2 hears everyone over its intact streams, and since
// each end of the broken stream declares the other dead for itself, its
// rounds close by count — no deadline is ever spent.
func TestTCPLostLinkStaysOneLink(t *testing.T) {
	var c StallCounters
	leakCheck(t, func() {
		tr, err := NewTCPMeshLoopbackOpts(3, 3, nil, TCPOpts{RoundTimeout: 50 * time.Millisecond, Counters: &c})
		if err != nil {
			t.Fatal(err)
		}
		sn := tr.sl.nodes[0]
		sn.mu.Lock()
		sn.conns[1].Close()
		sn.mu.Unlock()
		heard := driveRun(t, tr, 4)
		for r, row := range heard {
			for q := range row {
				for p, got := range row[q] {
					if want := p == q || p+q != 1; got != want { // p+q == 1: the lost link
						t.Errorf("round %d: p%d heard p%d = %v, want %v", r+1, q+1, p+1, got, want)
					}
				}
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if got := c.Stalls.Load(); got != 0 {
		t.Errorf("%d deadline misses: a lost link's rounds must close by count", got)
	}
	if got := c.Dead.Load(); got != 2 {
		t.Errorf("%d processes declared dead, want 2: each end rules on its peer", got)
	}
}

// TestUDPCloseLeaksNoGoroutines drives UDP meshes (fully distributed
// and grouped) through several rounds and requires every batch reader
// to unwind on Close.
func TestUDPCloseLeaksNoGoroutines(t *testing.T) {
	for _, nodes := range []int{4, 2} {
		leakCheck(t, func() {
			tr, err := NewUDPMeshLoopback(4, nodes, nil, udpTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			driveRun(t, tr, 5)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUDPCloseWithoutTrafficLeaksNoGoroutines closes a freshly built
// mesh whose sockets never carried a datagram: readers are parked on
// the netpoller, and Close must unwind them.
func TestUDPCloseWithoutTrafficLeaksNoGoroutines(t *testing.T) {
	leakCheck(t, func() {
		tr, err := NewUDPMeshLoopback(6, 3, nil, udpTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUDPCloseDuringInFlightGather closes the mesh while a Gather is
// parked mid-round on the deadline mailbox's timer/arrival select — with a
// deliberately enormous round deadline, so only Close can release it —
// and requires ErrClosed promptly, with no goroutine left behind, and a
// second Close (from the endpoint side and the transport side) to stay
// a no-op.
func TestUDPCloseDuringInFlightGather(t *testing.T) {
	leakCheck(t, func() {
		opts := UDPOpts{RoundTimeout: time.Hour, Grace: time.Hour}
		tr, err := NewUDPMeshLoopback(3, 3, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := tr.Endpoint(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Broadcast(1, []byte("only sender")); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			// Blocks: endpoints 1 and 2 never broadcast, and the
			// hour-long deadline means only Close can end the round.
			_, err := ep.Gather(1, nil)
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("in-flight Gather returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Gather still blocked after transport close")
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("double close: %v", err)
		}
		if err := ep.Close(); err != nil {
			t.Fatalf("endpoint close after transport close: %v", err)
		}
	})
}

// driveWithSilentPeer claims every endpoint, has the victim broadcast
// its round-1 frame and then go silent — a crashed process: its endpoint
// is never closed, it simply stops participating — and drives the
// survivors through `rounds` rounds. Survivors must hear the victim in
// round 1 and see its slot as a permanent drop by the final round (the
// death verdict has landed, whether announced via MarkDead or detected
// by the stall machinery). announce, when non-nil, is the supervisor's
// announced-crash path for transports with no detector of their own.
func driveWithSilentPeer(t *testing.T, tr Transport, victim, rounds int, announce func()) {
	t.Helper()
	n := tr.N()
	vep, err := tr.Endpoint(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := vep.Broadcast(1, payloadFor(victim, 1)); err != nil {
		t.Fatal(err)
	}
	if announce != nil {
		announce()
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		if i == victim {
			continue
		}
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			ep, err := tr.Endpoint(self)
			if err != nil {
				errs[self] = err
				return
			}
			var buf [][]byte
			for r := 1; r <= rounds; r++ {
				if err := ep.Broadcast(r, payloadFor(self, r)); err != nil {
					errs[self] = err
					return
				}
				recv, err := ep.Gather(r, buf)
				if err != nil {
					errs[self] = err
					return
				}
				buf = recv
				if r == 1 && recv[victim] == nil {
					errs[self] = fmt.Errorf("round 1 lost the victim's pre-crash frame")
					return
				}
				if r == rounds && recv[victim] != nil {
					errs[self] = fmt.Errorf("round %d still hears the dead victim", r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("p%d: %v", i+1, err)
		}
	}
}

// TestCloseWithKilledPeerLeaksNoGoroutines extends the leak pin to the
// chaos states: a peer killed mid-run (announced on inproc, detected by
// the stall machinery on tcp and udp) must leave the survivors able to
// finish their rounds, and Close must still unwind every goroutine. The
// tcp case doubles as the dead-peer-unwedge pin — with the zero TCPOpts
// this exact drive would block in Gather forever.
func TestCloseWithKilledPeerLeaksNoGoroutines(t *testing.T) {
	const n, victim, rounds = 4, 2, 6
	t.Run("inproc", func(t *testing.T) {
		leakCheck(t, func() {
			tr := NewInProc(n, nil)
			driveWithSilentPeer(t, tr, victim, rounds, func() { tr.MarkDead(victim, 2) })
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		var c StallCounters
		leakCheck(t, func() {
			tr, err := NewTCPMeshLoopbackOpts(n, n, nil, TCPOpts{
				RoundTimeout: 100 * time.Millisecond,
				DeadAfter:    2,
				Counters:     &c,
			})
			if err != nil {
				t.Fatal(err)
			}
			driveWithSilentPeer(t, tr, victim, rounds, nil)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if c.Stalls.Load() == 0 {
			t.Error("silent peer burned no deadlines")
		}
		if c.Dead.Load() == 0 {
			t.Error("stall detector never issued the death verdict")
		}
	})
	t.Run("udp", func(t *testing.T) {
		var c StallCounters
		leakCheck(t, func() {
			opts := udpTestOpts()
			opts.RoundTimeout = 100 * time.Millisecond
			opts.DeadAfter = 2
			opts.Counters = &c
			tr, err := NewUDPMeshLoopback(n, n, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			driveWithSilentPeer(t, tr, victim, rounds, nil)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if c.Stalls.Load() == 0 {
			t.Error("silent peer burned no deadlines")
		}
		if c.Dead.Load() == 0 {
			t.Error("stall detector never issued the death verdict")
		}
	})
}

// TestCloseIsIdempotent closes transports and endpoints repeatedly, in
// every order, and requires every call to succeed without panicking or
// deadlocking. Endpoint Close shares the transport's lifetime on every
// implementation, so endpoint-then-transport and transport-then-
// endpoint must both be safe.
func TestCloseIsIdempotent(t *testing.T) {
	builds := []struct {
		name string
		make func() (Transport, error)
	}{
		{"inproc", func() (Transport, error) { return NewInProc(3, nil), nil }},
		{"tcp", func() (Transport, error) { return NewTCPMeshLoopbackOpts(3, 3, nil, TCPOpts{}) }},
		{"tcp-nodes2", func() (Transport, error) { return NewTCPMeshLoopbackOpts(3, 2, nil, TCPOpts{}) }},
		{"udp", func() (Transport, error) { return NewUDPMeshLoopback(3, 3, nil, udpTestOpts()) }},
		{"udp-nodes2", func() (Transport, error) { return NewUDPMeshLoopback(3, 2, nil, udpTestOpts()) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			leakCheck(t, func() {
				tr, err := b.make()
				if err != nil {
					t.Fatal(err)
				}
				ep, err := tr.Endpoint(0)
				if err != nil {
					t.Fatal(err)
				}
				if err := ep.Close(); err != nil {
					t.Fatalf("endpoint close: %v", err)
				}
				if err := ep.Close(); err != nil {
					t.Fatalf("second endpoint close: %v", err)
				}
				if err := tr.Close(); err != nil {
					t.Fatalf("transport close after endpoint close: %v", err)
				}
				if err := tr.Close(); err != nil {
					t.Fatalf("second transport close: %v", err)
				}
				if err := ep.Close(); err != nil {
					t.Fatalf("endpoint close after transport close: %v", err)
				}
				if err := ep.Broadcast(1, []byte("x")); err == nil {
					t.Fatal("broadcast succeeded on a closed endpoint")
				}
			})
		})
	}
}
