// Microbenchmarks of the hot paths. Run with
//
//	go test -run '^$' -bench=. -benchmem .
//
// The BenchmarkHot* and BenchmarkTransportRound rows are the ones CI's
// bench-gate job compares against the merge-base (cmd/benchdiff). The
// experiments themselves run through cmd/ksetbench; end-to-end numbers
// come from benchmark/.
package kset_test

import (
	"math/rand"
	"sync"
	"testing"

	"kset"
	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/sim"
	"kset/internal/skeleton"
	"kset/internal/transport"
	"kset/internal/wire"
)

// BenchmarkRoundTransition measures one full round of Algorithm 1
// transitions (the simulator's inner loop) at several scales.
func BenchmarkRoundTransition(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		b.Run(benchName("n", n), func(b *testing.B) {
			adv := adversary.Complete(n)
			procs := make([]*core.Process, n)
			factory := core.NewFactory(sim.SeqProposals(n), core.Options{})
			for i := range procs {
				procs[i] = factory(i).(*core.Process)
				procs[i].Init(i, n)
			}
			msgs := make([]any, n)
			recv := make([]any, n)
			g := adv.Graph(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i + 1
				for j, p := range procs {
					msgs[j] = p.Send(r)
				}
				for q := 0; q < n; q++ {
					for j := range recv {
						recv[j] = nil
					}
					g.ForEachIn(q, func(p int) { recv[p] = msgs[p] })
					procs[q].Transition(r, recv)
				}
			}
		})
	}
}

// BenchmarkHotTransition measures one full round of Algorithm 1 on a
// complete graph — the zero-allocation steady state of the round engine
// (CI runs every BenchmarkHot* as a smoke test).
func BenchmarkHotTransition(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(benchName("n", n), func(b *testing.B) {
			procs := make([]*core.Process, n)
			factory := core.NewFactory(sim.SeqProposals(n), core.Options{})
			for i := range procs {
				procs[i] = factory(i).(*core.Process)
				procs[i].Init(i, n)
			}
			msgs := make([]any, n)
			r := 0
			round := func() {
				r++
				for j, p := range procs {
					msgs[j] = p.Send(r)
				}
				for _, p := range procs {
					p.Transition(r, msgs)
				}
			}
			for i := 0; i < 2*n+2; i++ {
				round() // reach the decided steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkHotTransitionRing is the large-n variant of the round engine
// benchmark: a directed ring with self-loops keeps the per-round message
// volume linear in n, so the multi-word kernels (merge, purge, prune,
// connectivity) dominate instead of quadratic message fan-in. One op is
// one full round across all n processes.
func BenchmarkHotTransitionRing(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(benchName("n", n), func(b *testing.B) {
			ring := graph.NewFullDigraph(n)
			for v := 0; v < n; v++ {
				ring.AddEdge(v, v)
				ring.AddEdge(v, (v+1)%n)
			}
			procs := make([]*core.Process, n)
			factory := core.NewFactory(sim.SeqProposals(n), core.Options{})
			for i := range procs {
				procs[i] = factory(i).(*core.Process)
				procs[i].Init(i, n)
			}
			msgs := make([]any, n)
			recv := make([]any, n)
			r := 0
			round := func() {
				r++
				for j, p := range procs {
					msgs[j] = p.Send(r)
				}
				for q := 0; q < n; q++ {
					for j := range recv {
						recv[j] = nil
					}
					ring.ForEachIn(q, func(p int) { recv[p] = msgs[p] })
					procs[q].Transition(r, recv)
				}
			}
			for i := 0; i < 2*n+4; i++ {
				round() // reach the decided steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkHotPruneInPlace measures the matrix-native line-25 prune with
// a warm scratch.
func BenchmarkHotPruneInPlace(b *testing.B) {
	for _, n := range []int{8, 32, 64, 128, 256} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(31))
			g := graph.NewLabeled(n)
			for i := 0; i < 3*n; i++ {
				g.MergeEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(9))
			}
			work := g.Clone()
			var s graph.ReachScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(g)
				work.PruneUnreachableToInPlace(0, &s)
			}
		})
	}
}

// BenchmarkHotStronglyConnected measures the matrix-native line-28
// connectivity test with a warm scratch.
func BenchmarkHotStronglyConnected(b *testing.B) {
	for _, n := range []int{8, 32, 64, 128, 256} {
		b.Run(benchName("n", n), func(b *testing.B) {
			g := graph.NewLabeled(n)
			for v := 0; v < n; v++ {
				g.MergeEdge(v, (v+1)%n, 1)
			}
			var s graph.ReachScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !g.StronglyConnectedInto(&s) {
					b.Fatal("cycle not strongly connected")
				}
			}
		})
	}
}

// BenchmarkHotSkeletonObserve measures the skeleton tracker's word-level
// intersection in the post-stabilization regime.
func BenchmarkHotSkeletonObserve(b *testing.B) {
	n := 64
	g := kset.CompleteDigraph(n)
	tr := skeleton.NewTracker(n, false)
	tr.Observe(1, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(i+2, g)
	}
}

// BenchmarkHotSkeletonObserveWide is the multi-word variant of the
// skeleton tracker benchmark: the stable-intersection word loop over a
// 256-node complete graph (4 words per row).
func BenchmarkHotSkeletonObserveWide(b *testing.B) {
	n := 256
	g := kset.CompleteDigraph(n)
	tr := skeleton.NewTracker(n, false)
	tr.Observe(1, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(i+2, g)
	}
}

// BenchmarkSCC measures the strongly-connected-components kernel.
func BenchmarkSCC(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			g := graph.RandomDigraph(n, 0.1, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(graph.SCC(g)) == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// BenchmarkWireCodec measures message encode/decode round-trips.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	n := 32
	g := graph.NewLabeled(n)
	for i := 0; i < 4*n; i++ {
		g.MergeEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(100))
	}
	msg := core.Message{Kind: core.Prop, X: 12345, G: g}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendEncode(buf[:0], msg)
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "B/msg")
}

// BenchmarkMinK measures the exact Psrcs MinK computation (independence
// number).
func BenchmarkMinK(b *testing.B) {
	for _, n := range []int{16, 32, 48} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			skel := graph.RandomRootedSkeleton(n, 3, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if predicate.MinK(skel) < 1 {
					b.Fatal("bad MinK")
				}
			}
		})
	}
}

// BenchmarkTransportRound measures one communication-closed round on
// the real transports — every process broadcasts a payload and gathers
// the full vector — with no algorithm or codec cost. One op is one
// round across all n endpoints (goroutines pace each other through
// round closure, so ns/op is the transport's round latency). The
// benchdiff gate watches these alongside the BenchmarkHot family. The
// rows without a policy run the lossless one; the /schedule rows replay
// a materialized RandomSingleSource run, the policy every live run has.
func BenchmarkTransportRound(b *testing.B) {
	sched := func(n int) transport.Policy {
		return transport.NewSchedule(adversary.RandomSingleSource(n, n/4, 0.1, 0.3, rand.New(rand.NewSource(17))))
	}
	kinds := []struct {
		name string
		ns   []int
		make func(n int) (transport.Transport, error)
	}{
		{"inproc", []int{8, 32}, func(n int) (transport.Transport, error) { return transport.NewInProc(n, nil), nil }},
		{"inproc/schedule", []int{32}, func(n int) (transport.Transport, error) { return transport.NewInProc(n, sched(n)), nil }},
		// The fully distributed mesh runs only at n=8 here: at n=32 it is
		// 32 nodes and ~1000 streams, a set-up and a round that would
		// dominate the gate's run time (E19 covers that shape's
		// throughput instead).
		{"tcp", []int{8}, func(n int) (transport.Transport, error) {
			return transport.NewTCPMeshLoopbackOpts(n, n, nil, transport.TCPOpts{})
		}},
		{"tcpnodes2", []int{8, 32}, func(n int) (transport.Transport, error) {
			return transport.NewTCPMeshLoopbackOpts(n, 2, nil, transport.TCPOpts{})
		}},
		{"tcpnodes2/schedule", []int{32}, func(n int) (transport.Transport, error) {
			return transport.NewTCPMeshLoopbackOpts(n, 2, sched(n), transport.TCPOpts{})
		}},
		// The UDP rows mirror the TCP ones (same n=8 restriction on the
		// fully distributed shape, for the same reason).
		// Default options: on a quiet loopback nothing is lost, so the
		// round deadline never fires and ns/op measures the datagram
		// batch path, not absence closure.
		{"udp", []int{8}, func(n int) (transport.Transport, error) {
			return transport.NewUDPMeshLoopback(n, n, nil, transport.UDPOpts{})
		}},
		{"udpnodes2", []int{8, 32}, func(n int) (transport.Transport, error) {
			return transport.NewUDPMeshLoopback(n, 2, nil, transport.UDPOpts{})
		}},
	}
	for _, kind := range kinds {
		for _, n := range kind.ns {
			b.Run(kind.name+"/"+benchName("n", n), func(b *testing.B) {
				tr, err := kind.make(n)
				if err != nil {
					b.Fatal(err)
				}
				defer tr.Close()
				eps := make([]transport.Endpoint, n)
				for i := range eps {
					if eps[i], err = tr.Endpoint(i); err != nil {
						b.Fatal(err)
					}
				}
				payload := make([]byte, 96)
				errs := make([]error, n)
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				wg.Add(n)
				for i := range eps {
					go func(self int) {
						defer wg.Done()
						ep := eps[self]
						var buf [][]byte
						for r := 1; r <= b.N; r++ {
							if err := ep.Broadcast(r, payload); err != nil {
								errs[self] = err
								return
							}
							if buf, err = ep.Gather(r, buf); err != nil {
								errs[self] = err
								return
							}
						}
					}(i)
				}
				wg.Wait()
				b.StopTimer()
				for i, err := range errs {
					if err != nil {
						b.Fatalf("endpoint %d: %v", i, err)
					}
				}
			})
		}
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
