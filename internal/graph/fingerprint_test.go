package graph

import "testing"

func fpGraph(edges [][2]VertexID, n int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestFingerprintStableAcrossRebuilds(t *testing.T) {
	edges := [][2]VertexID{{0, 1}, {1, 2}, {2, 0}, {0, 2}}
	a := Fingerprint(fpGraph(edges, 4))
	b := Fingerprint(fpGraph(edges, 4))
	if a != b {
		t.Fatalf("same graph fingerprints differ: %x vs %x", a, b)
	}
	// Insertion order is irrelevant: CSR adjacency is sorted at Build.
	rev := [][2]VertexID{{0, 2}, {2, 0}, {1, 2}, {0, 1}}
	if c := Fingerprint(fpGraph(rev, 4)); c != a {
		t.Fatalf("insertion order changed fingerprint: %x vs %x", c, a)
	}
}

func TestFingerprintDistinguishesContent(t *testing.T) {
	base := fpGraph([][2]VertexID{{0, 1}, {1, 2}}, 4)
	seen := map[uint64]string{Fingerprint(base): "base"}

	record := func(name string, g *Graph) {
		fp := Fingerprint(g)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s collides with %s (%x)", name, prev, fp)
		}
		seen[fp] = name
	}

	record("extra edge", fpGraph([][2]VertexID{{0, 1}, {1, 2}, {2, 3}}, 4))
	record("different dst", fpGraph([][2]VertexID{{0, 1}, {1, 3}}, 4))
	record("extra isolated vertex", fpGraph([][2]VertexID{{0, 1}, {1, 2}}, 5))

	wb := NewBuilder(4)
	wb.AddWeightedEdge(0, 1, 1)
	wb.AddWeightedEdge(1, 2, 1)
	weighted := wb.Build()
	record("weighted (all 1s)", weighted)

	wb2 := NewBuilder(4)
	wb2.AddWeightedEdge(0, 1, 1)
	wb2.AddWeightedEdge(1, 2, 2)
	record("different weight", wb2.Build())

	tb := NewBuilder(4)
	tb.AddTypedEdge(0, 1, 1, 0)
	tb.AddTypedEdge(1, 2, 1, 0)
	record("typed (all 0s)", tb.Build())

	tb2 := NewBuilder(4)
	tb2.AddTypedEdge(0, 1, 1, 0)
	tb2.AddTypedEdge(1, 2, 1, 3)
	record("different type", tb2.Build())
}

func TestFingerprintPartialSliceDiffersFromFull(t *testing.T) {
	b := NewBuilder(6)
	for v := VertexID(0); v < 6; v++ {
		b.AddEdge(v, (v+1)%6)
	}
	full := b.Build()
	part := Subgraph(full, 0, 3)
	if Fingerprint(part) == Fingerprint(full) {
		t.Fatal("partition-local slice fingerprints like the full graph")
	}
	if Fingerprint(part) != Fingerprint(Subgraph(full, 0, 3)) {
		t.Fatal("same slice fingerprints differ")
	}
	if Fingerprint(part) == Fingerprint(Subgraph(full, 3, 6)) {
		t.Fatal("different slices collide")
	}
}

// TestFingerprintSwappedAdjacency: each vertex's term is seeded by its
// ID, so moving an adjacency list to another vertex changes the hash even
// though the multiset of per-vertex edge lists is unchanged.
func TestFingerprintSwappedAdjacency(t *testing.T) {
	a := fpGraph([][2]VertexID{{0, 1}, {0, 2}, {1, 3}}, 4)
	b := fpGraph([][2]VertexID{{1, 1}, {1, 2}, {0, 3}}, 4)
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("swapping two vertices' adjacency did not change the fingerprint")
	}
}

// TestFingerprintDecomposesPerVertex: replacing some vertices' adjacency
// moves the fingerprint by exactly the difference of those vertices'
// VertexHash terms — the identity dynamic graphs maintain per batch.
func TestFingerprintDecomposesPerVertex(t *testing.T) {
	b := NewBuilder(5)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, 2)
	b.AddWeightedEdge(1, 4, 3)
	b.AddWeightedEdge(3, 0, 1)
	before := b.Build()
	b = NewBuilder(5)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, 5)
	b.AddWeightedEdge(3, 0, 1)
	b.AddWeightedEdge(3, 4, 2)
	after := b.Build()

	want := Fingerprint(before)
	for _, v := range []VertexID{1, 3} {
		want += VertexHash(after, v) - VertexHash(before, v)
	}
	if got := Fingerprint(after); got != want {
		t.Fatalf("fingerprint %016x, incremental update %016x", got, want)
	}
}
