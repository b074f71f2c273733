package dyngraph

import (
	"fmt"
	"math/rand"
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
)

// benchBatches pre-generates valid upsert batches: sources drawn from a
// fixed pool of the first `pool` vertices (so the affected-vertex set is
// the same across graph sizes), destinations anywhere in [0, n).
func benchBatches(n, pool, batches, size int, seed int64) [][]Delta {
	r := rand.New(rand.NewSource(seed))
	out := make([][]Delta, batches)
	for b := range out {
		batch := make([]Delta, size)
		for i := range batch {
			batch[i] = Delta{
				Src:    graph.VertexID(r.Intn(pool)),
				Dst:    graph.VertexID(r.Intn(n)),
				Weight: float32(r.Float64()*9 + 1),
			}
		}
		out[b] = batch
	}
	return out
}

// fpSink keeps the compiler from dropping BenchmarkIngest's fingerprint
// reads.
var fpSink uint64

// BenchmarkIngest measures end-to-end Apply cost — delta validation,
// segment maintenance, envelope updates, incremental sampler rebuilds,
// overlay flattening, fingerprint maintenance, epoch publication — per
// ingested edge, plus the epoch fingerprint read every ingest reply
// makes. The sweep over |V| with a fixed affected-vertex pool is the
// O(affected-vertex) demonstration: if any ingest step rebuilt
// full-graph state (sampler tables, content hash), ns/edge would scale
// with |V|; incrementally maintained, it stays flat.
func BenchmarkIngest(b *testing.B) {
	const (
		batchSize = 256
		pool      = 512
	)
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			base := gen.WithUniformWeights(gen.UniformDegree(n, 8, 131), 1, 5, 132)
			batches := benchBatches(n, pool, 64, batchSize, 133)
			d, err := New(base, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ep, err := d.Apply(batches[i%len(batches)])
				if err != nil {
					b.Fatal(err)
				}
				fpSink = ep.Fingerprint()
				// Keep the overlay bounded so the benchmark measures steady
				// ingest, not unbounded overlay growth.
				if (i+1)%64 == 0 {
					b.StopTimer()
					if _, err := d.Compact(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/edge")
			b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}

// BenchmarkSamplerUpdate isolates the sampler-maintenance share of
// ingest: identical Apply workload on an unweighted graph (no tables to
// maintain) would not represent weighted cost, so instead it reports
// the per-edge cost of Apply on a weighted graph where every batch
// touches few vertices with high degree — the worst case for the
// O(degree) table rebuild.
func BenchmarkSamplerUpdate(b *testing.B) {
	const n = 20_000
	base := gen.WithUniformWeights(gen.Hotspot(n, 8, 16, 2000, 137), 1, 5, 138)
	r := rand.New(rand.NewSource(139))
	batches := make([][]Delta, 64)
	for i := range batches {
		batch := make([]Delta, 64)
		for j := range batch {
			batch[j] = Delta{
				Src:    graph.VertexID(r.Intn(16)), // always a hub
				Dst:    graph.VertexID(r.Intn(n)),
				Weight: float32(r.Float64()*9 + 1),
			}
		}
		batches[i] = batch
	}
	d, err := New(base, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Apply(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		if (i+1)%64 == 0 {
			b.StopTimer()
			if _, err := d.Compact(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/edge")
}

// BenchmarkCompact measures folding a 16k-delta overlay over a 100k-
// vertex graph into a fresh CSR (materialization + sampler-store fold;
// the fingerprint carries over unchanged).
func BenchmarkCompact(b *testing.B) {
	const n = 100_000
	base := gen.WithUniformWeights(gen.UniformDegree(n, 8, 141), 1, 5, 142)
	batches := benchBatches(n, n, 16, 1024, 143)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := New(base, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if _, err := d.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := d.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
