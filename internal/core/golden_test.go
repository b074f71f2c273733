package core_test

// Golden path digests: walk output pinned to fixed values, not just to
// another run of the same code. Any change to sampler storage, sampler
// build order or RNG draw order that alters a single step shows up here.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
)

// pathDigest is FNV-64a over every path in walker-ID order: each vertex
// as a little-endian u32, then one 0xff byte per path.
func pathDigest(paths [][]graph.VertexID) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, p := range paths {
		for _, v := range p {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenPathDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("walks 20k walkers four ways")
	}
	g := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(20000, 6, 800, 2.0, 7), 5, 2.0, 8)
	node2vec := func() *core.Algorithm {
		return alg.Node2Vec(alg.Node2VecParams{
			Length: 40, P: 2, Q: 0.5, Biased: true, LowerBound: true, FoldOutlier: true,
		})
	}
	cases := []struct {
		name string
		alg  func() *core.Algorithm
		kind string
		want string
	}{
		{"deepwalk/alias", func() *core.Algorithm { return alg.DeepWalk(40, true) }, "alias", "294af64a3db5c2cd"},
		{"deepwalk/its", func() *core.Algorithm { return alg.DeepWalk(40, true) }, "its", "747bd9e1b8f3fd80"},
		{"node2vec/alias", node2vec, "alias", "9268f033486f6f5d"},
		{"node2vec/its", node2vec, "its", "86c159135a6eea22"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				res, err := core.Run(core.Config{
					Graph:       g,
					Algorithm:   tc.alg(),
					NumNodes:    3,
					Workers:     workers,
					Seed:        11,
					NumWalkers:  20000,
					RecordPaths: true,
					SamplerKind: tc.kind,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := pathDigest(res.Paths); got != tc.want {
					t.Fatalf("path digest %s, want %s", got, tc.want)
				}
			})
		}
	}
}
