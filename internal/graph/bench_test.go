package graph

import (
	"testing"

	"knightking/internal/rng"
)

func benchGraph(b *testing.B, n, deg int) *Graph {
	b.Helper()
	r := rng.New(1)
	bld := NewBuilder(n).SetUndirected(true).SetDedup(true)
	for v := 0; v < n; v++ {
		for k := 0; k < deg/2; k++ {
			u := VertexID(r.Intn(n))
			if u != VertexID(v) {
				bld.AddEdge(VertexID(v), u)
			}
		}
	}
	return bld.Build()
}

func BenchmarkBuildCSR(b *testing.B) {
	r := rng.New(1)
	const n, m = 10000, 80000
	srcs := make([]VertexID, m)
	dsts := make([]VertexID, m)
	for i := range srcs {
		srcs[i] = VertexID(r.Intn(n))
		dsts[i] = VertexID(r.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(n)
		for j := range srcs {
			bld.AddEdge(srcs[j], dsts[j])
		}
		_ = bld.Build()
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(b, 10000, 50)
	r := rng.New(2)
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = g.HasEdge(VertexID(r.Intn(10000)), VertexID(r.Intn(10000)))
	}
	_ = sink
}

func BenchmarkDegreeStats(b *testing.B) {
	g := benchGraph(b, 10000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Stats()
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := benchGraph(b, 10000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ConnectedComponents(g)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	g := benchGraph(b, 10000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpBenchSink = Fingerprint(g)
	}
}

// fpBenchSink keeps the compiler from dropping BenchmarkFingerprint's
// calls.
var fpBenchSink uint64
