// Package cluster provides the distributed-execution scaffolding under the
// walk engine: the paper's 1-D vertex partitioner (§6.1) and a runner that
// executes one goroutine group per logical node over a transport group.
//
// KnightKing assigns each vertex (with all its out-edges) to exactly one
// node, and balances the sum of local vertex and edge counts across nodes —
// deliberately optimizing for even memory consumption rather than even
// walker traffic, since memory capacity is what forces distribution in the
// first place.
package cluster

import (
	"fmt"
	"sync"

	"knightking/internal/graph"
	"knightking/internal/transport"
)

// Partition is a contiguous 1-D assignment of vertices to nodes.
type Partition struct {
	// starts[i] is the first vertex owned by node i; starts[n] = |V|.
	starts []graph.VertexID
}

// Partition1D splits g's vertices into numNodes contiguous ranges so that
// each range's workload estimate, alpha·(vertex count) + (edge count), is
// near total/numNodes. alpha weighs vertex state against edge storage; the
// paper's "sum of a node's local vertex and edge counts" corresponds to
// alpha = 1.
func Partition1D(g *graph.Graph, numNodes int, alpha float64) *Partition {
	if numNodes <= 0 {
		panic(fmt.Sprintf("cluster: Partition1D with %d nodes", numNodes))
	}
	n := g.NumVertices()
	total := alpha*float64(n) + float64(g.NumEdges())
	target := total / float64(numNodes)

	starts := make([]graph.VertexID, numNodes+1)
	starts[numNodes] = graph.VertexID(n)
	node := 1
	acc := 0.0
	for v := 0; v < n && node < numNodes; v++ {
		acc += alpha + float64(g.Degree(graph.VertexID(v)))
		if acc >= target*float64(node) {
			starts[node] = graph.VertexID(v + 1)
			node++
		}
	}
	// Any ranges not assigned (possible when few vertices carry most of
	// the weight) become empty tail ranges.
	for ; node < numNodes; node++ {
		starts[node] = graph.VertexID(n)
	}
	return &Partition{starts: starts}
}

// NewPartition builds a partition from explicit range starts: starts[i] is
// node i's first vertex and starts[len-1] is |V|. Used when every rank
// must agree on a partition computed elsewhere (e.g. from a binary file's
// offset array before loading partition-local slices).
func NewPartition(starts []graph.VertexID) (*Partition, error) {
	if len(starts) < 2 {
		return nil, fmt.Errorf("cluster: partition needs at least 2 boundaries")
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("cluster: partition must start at vertex 0, got %d", starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return nil, fmt.Errorf("cluster: partition boundaries not monotone at %d", i)
		}
	}
	out := make([]graph.VertexID, len(starts))
	copy(out, starts)
	return &Partition{starts: out}, nil
}

// Starts returns the partition's boundary array (copy), suitable for
// NewPartition on another rank.
func (p *Partition) Starts() []graph.VertexID {
	out := make([]graph.VertexID, len(p.starts))
	copy(out, p.starts)
	return out
}

// Partition1DFromDegrees is Partition1D computed from a bare degree array,
// for ranks that know every vertex's degree (e.g. from a binary CSR
// header) without holding the full edge data.
func Partition1DFromDegrees(degrees []int, numNodes int, alpha float64) *Partition {
	if numNodes <= 0 {
		panic(fmt.Sprintf("cluster: Partition1DFromDegrees with %d nodes", numNodes))
	}
	n := len(degrees)
	total := alpha * float64(n)
	for _, d := range degrees {
		total += float64(d)
	}
	target := total / float64(numNodes)
	starts := make([]graph.VertexID, numNodes+1)
	starts[numNodes] = graph.VertexID(n)
	node := 1
	acc := 0.0
	for v := 0; v < n && node < numNodes; v++ {
		acc += alpha + float64(degrees[v])
		if acc >= target*float64(node) {
			starts[node] = graph.VertexID(v + 1)
			node++
		}
	}
	for ; node < numNodes; node++ {
		starts[node] = graph.VertexID(n)
	}
	return &Partition{starts: starts}
}

// UniformPartition splits |V| vertices into equal-size contiguous ranges,
// ignoring edge counts. Used by tests and as a degenerate baseline.
func UniformPartition(numVertices, numNodes int) *Partition {
	if numNodes <= 0 {
		panic("cluster: UniformPartition with no nodes")
	}
	starts := make([]graph.VertexID, numNodes+1)
	for i := 0; i <= numNodes; i++ {
		starts[i] = graph.VertexID(i * numVertices / numNodes)
	}
	return &Partition{starts: starts}
}

// NumNodes returns the number of ranges.
func (p *Partition) NumNodes() int { return len(p.starts) - 1 }

// Owner returns the node owning vertex v: the smallest i with
// starts[i+1] > v. It runs on every walker migration, so the binary search
// is hand-rolled; sort.Search would take a capturing closure.
//
//kk:hotpath
func (p *Partition) Owner(v graph.VertexID) int {
	lo, hi := 0, len(p.starts)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.starts[mid+1] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(p.starts)-1 {
		panic(fmt.Sprintf("cluster: vertex %d outside partition", v)) //kk:alloc-ok error path: a vertex outside the graph aborts the run
	}
	return lo
}

// Range returns the half-open vertex range [lo, hi) owned by node rank.
func (p *Partition) Range(rank int) (lo, hi graph.VertexID) {
	return p.starts[rank], p.starts[rank+1]
}

// Owns reports whether node rank owns vertex v.
//
//kk:hotpath
func (p *Partition) Owns(rank int, v graph.VertexID) bool {
	return v >= p.starts[rank] && v < p.starts[rank+1]
}

// LoadEstimate returns node rank's alpha·|V|+|E| workload under g.
func (p *Partition) LoadEstimate(g *graph.Graph, rank int, alpha float64) float64 {
	lo, hi := p.Range(rank)
	load := alpha * float64(hi-lo)
	for v := lo; v < hi; v++ {
		load += float64(g.Degree(v))
	}
	return load
}

// Run executes fn once per endpoint, each on its own goroutine (one per
// logical cluster node), and waits for all to finish. It returns the first
// non-nil error. On error the remaining nodes are unblocked by closing the
// transport group.
func Run(eps []transport.Endpoint, fn func(rank int, ep transport.Endpoint) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(eps))
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep transport.Endpoint) {
			defer wg.Done()
			if err := fn(i, ep); err != nil {
				errs[i] = err
				_ = ep.Close() // best-effort: unblock peers stuck in Exchange
			}
		}(i, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
