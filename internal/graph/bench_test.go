package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchGraph(n int, p float64) *Digraph {
	return RandomDigraph(n, p, rand.New(rand.NewSource(1)))
}

func BenchmarkSCCSparse(b *testing.B) {
	g := benchGraph(128, 0.02)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SCC(g)
	}
}

func BenchmarkSCCDense(b *testing.B) {
	g := benchGraph(128, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SCC(g)
	}
}

func BenchmarkKosaraju(b *testing.B) {
	g := benchGraph(128, 0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SCCKosaraju(g)
	}
}

func BenchmarkIntersectWith(b *testing.B) {
	a := benchGraph(128, 0.2)
	c := benchGraph(128, 0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := a.Clone()
		x.IntersectWith(c)
	}
}

func BenchmarkRootComponents(b *testing.B) {
	g := RandomRootedSkeleton(96, 5, rand.New(rand.NewSource(2)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RootComponents(g)
	}
}

// BenchmarkLabeledMergeRound is the label-matrix half of one round of
// approximation merging — Reset, MergeFrom of three received graphs,
// PurgeOlderThan — on random graphs on both sides of dense()'s 25% line:
// a 24% source still takes the per-bit edge walk, and the union of three
// is flat for the purge and the next Reset from 10% up. DESIGN.md §8
// records the table.
func BenchmarkLabeledMergeRound(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		for _, pct := range []int{2, 10, 20, 24} {
			b.Run(fmt.Sprintf("n=%d/density=%d%%", n, pct), func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				received := make([]*Labeled, 3)
				for i := range received {
					received[i] = NewLabeled(n)
					for u := 0; u < n; u++ {
						for v := 0; v < n; v++ {
							if rng.Intn(100) < pct {
								received[i].MergeEdge(u, v, 1+rng.Intn(50))
							}
						}
					}
				}
				g := NewLabeled(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.Reset()
					for _, src := range received {
						g.MergeFrom(src)
					}
					g.PurgeOlderThan(10)
				}
			})
		}
	}
}

func BenchmarkReachable(b *testing.B) {
	g := benchGraph(256, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Reachable(g, 0)
	}
}

func BenchmarkNodeSetOps(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := NewNodeSet(512)
	y := NewNodeSet(512)
	for i := 0; i < 200; i++ {
		x.Add(rng.Intn(512))
		y.Add(rng.Intn(512))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := x.Clone()
		z.IntersectWith(y)
		z.UnionWith(x)
		_ = z.Len()
	}
}
