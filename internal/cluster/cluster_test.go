package cluster

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/rng"
	"knightking/internal/transport"
)

func TestUniformPartition(t *testing.T) {
	p := UniformPartition(100, 4)
	if p.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", p.NumNodes())
	}
	for rank := 0; rank < 4; rank++ {
		lo, hi := p.Range(rank)
		if hi-lo != 25 {
			t.Fatalf("rank %d owns %d vertices", rank, hi-lo)
		}
	}
}

func TestOwnerConsistentWithRange(t *testing.T) {
	g := gen.TruncatedPowerLaw(500, 2, 100, 2.0, 1)
	p := Partition1D(g, 5, 1)
	for v := 0; v < g.NumVertices(); v++ {
		owner := p.Owner(graph.VertexID(v))
		if !p.Owns(owner, graph.VertexID(v)) {
			t.Fatalf("Owner(%d) = %d but Owns is false", v, owner)
		}
		lo, hi := p.Range(owner)
		if graph.VertexID(v) < lo || graph.VertexID(v) >= hi {
			t.Fatalf("vertex %d outside its owner's range [%d,%d)", v, lo, hi)
		}
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	g := gen.UniformDegree(333, 7, 2)
	for _, n := range []int{1, 2, 3, 7, 16} {
		p := Partition1D(g, n, 1)
		covered := 0
		for rank := 0; rank < n; rank++ {
			lo, hi := p.Range(rank)
			covered += int(hi - lo)
		}
		if covered != g.NumVertices() {
			t.Fatalf("%d nodes cover %d of %d vertices", n, covered, g.NumVertices())
		}
	}
}

func TestPartition1DBalancesLoad(t *testing.T) {
	// Skewed graph: loads should still be within a reasonable factor, and
	// far better balanced than vertex counts alone would be.
	g := gen.TruncatedPowerLaw(2000, 2, 400, 2.0, 3)
	const n = 4
	p := Partition1D(g, n, 1)
	total := float64(g.NumVertices()) + float64(g.NumEdges())
	target := total / n
	for rank := 0; rank < n; rank++ {
		load := p.LoadEstimate(g, rank, 1)
		if load < 0.5*target || load > 1.5*target {
			t.Fatalf("rank %d load %v far from target %v", rank, load, target)
		}
	}
}

func TestPartitionMoreNodesThanVertices(t *testing.T) {
	g := gen.Ring(3, 0)
	p := Partition1D(g, 10, 1)
	covered := 0
	for rank := 0; rank < 10; rank++ {
		lo, hi := p.Range(rank)
		covered += int(hi - lo)
	}
	if covered != 3 {
		t.Fatalf("covered %d vertices", covered)
	}
	// All vertices must still have owners.
	for v := graph.VertexID(0); v < 3; v++ {
		p.Owner(v)
	}
}

func TestOwnerQuick(t *testing.T) {
	g := gen.UniformDegree(1000, 5, 4)
	p := Partition1D(g, 7, 1)
	f := func(raw uint32) bool {
		v := graph.VertexID(raw % 1000)
		owner := p.Owner(v)
		lo, hi := p.Range(owner)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerMatchesSortSearch checks the hand-rolled Owner search against
// a sort.Search reference over random partitions, many of them with
// empty ranks (repeated boundaries), for every vertex, and checks that a
// vertex past the last boundary still panics.
func TestOwnerMatchesSortSearch(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 200; trial++ {
		ranks := 1 + r.Intn(9)
		numV := r.Intn(60)
		starts := make([]graph.VertexID, ranks+1)
		for i := 1; i < ranks; i++ {
			starts[i] = graph.VertexID(r.Intn(numV + 1))
		}
		starts[ranks] = graph.VertexID(numV)
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		p, err := NewPartition(starts)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < numV; v++ {
			want := sort.Search(ranks, func(i int) bool { return starts[i+1] > graph.VertexID(v) })
			if got := p.Owner(graph.VertexID(v)); got != want {
				t.Fatalf("starts %v: Owner(%d) = %d, want %d", starts, v, got, want)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("starts %v: Owner(%d) past the last boundary did not panic", starts, numV)
				}
			}()
			p.Owner(graph.VertexID(numV))
		}()
	}
}

func TestRunAllNodesExecute(t *testing.T) {
	eps := transport.NewInProcGroup(4)
	ran := make([]bool, 4)
	err := Run(eps, func(rank int, ep transport.Endpoint) error {
		ran[rank] = true
		if ep.Rank() != rank {
			return fmt.Errorf("endpoint rank %d != %d", ep.Rank(), rank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("node %d did not run", i)
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	eps := transport.NewInProcGroup(3)
	sentinel := errors.New("node failure")
	err := Run(eps, func(rank int, ep transport.Endpoint) error {
		if rank == 1 {
			return sentinel
		}
		// Other nodes block in Exchange; the failing node's Close must
		// unblock them.
		_, err := ep.Exchange()
		if err == nil {
			return errors.New("exchange should have failed after peer close")
		}
		return nil
	})
	if !errors.Is(err, sentinel) && err == nil {
		t.Fatalf("Run error = %v, want %v", err, sentinel)
	}
}

func TestRunWithCommunication(t *testing.T) {
	eps := transport.NewInProcGroup(4)
	err := Run(eps, func(rank int, ep transport.Endpoint) error {
		// All-to-all "hello", then verify receipt.
		for to := 0; to < ep.Size(); to++ {
			ep.Send(to, 1, []byte{byte(rank)})
		}
		msgs, err := ep.Exchange()
		if err != nil {
			return err
		}
		if len(msgs) != 4 {
			return fmt.Errorf("rank %d got %d messages", rank, len(msgs))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
