package transport

import (
	"runtime/debug"
	"testing"
)

// TestSteadyStateAllocs pins the reused-buffer claim on the mesh core
// and on each link: once the mailbox rings' slot buffers, the frame
// scratch, and the links' batch, reassembly and writev state are warm,
// a full round (every process broadcasts, every process gathers)
// allocates nothing. AllocsPerRun counts mallocs across all goroutines,
// so on the socket meshes the pin covers the reader loops too, not just
// the endpoint-facing calls and the ship they make. One goroutine drives every
// endpoint — broadcasts never block, so all of round r is deposited or
// on the wire before the first gather — and GC is disabled for the
// measurement so nothing the collector does is counted.
func TestSteadyStateAllocs(t *testing.T) {
	const n = 2
	links := []struct {
		name string
		make func() (Transport, error)
	}{
		{"inproc", func() (Transport, error) { return NewInProc(n, nil), nil }},
		{"stream", func() (Transport, error) { return NewTCPMeshLoopbackOpts(n, n, nil, TCPOpts{}) }},
		{"datagram", func() (Transport, error) { return NewUDPMeshLoopback(n, n, nil, udpTestOpts()) }},
	}
	for _, link := range links {
		t.Run(link.name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			tr, err := link.make()
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
			payload := []byte("steady-state payload")
			bufs := make([][][]byte, n)
			r := 0
			round := func() {
				r++
				for _, ep := range eps {
					if err := ep.Broadcast(r, payload); err != nil {
						t.Fatal(err)
					}
				}
				for i, ep := range eps {
					recv, err := ep.Gather(r, bufs[i])
					if err != nil {
						t.Fatal(err)
					}
					bufs[i] = recv
				}
			}
			// Warm everything past the ring window: pools, gather buffers,
			// frame, batch and reassembly scratch all reach steady capacity.
			for i := 0; i < 4*window; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(100, round); avg != 0 {
				t.Fatalf("steady-state round allocates %.1f times, want 0", avg)
			}
		})
	}
}
