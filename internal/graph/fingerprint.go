package graph

import (
	"math"
	"math/bits"
)

// Fingerprint seeds and multipliers: fixed constants, so fingerprints are
// stable across platforms, processes and releases (unlike hash/maphash,
// which is deliberately per-process seeded). The three seeds keep the
// shape, per-vertex and overlay-bound hashes in separate domains.
const (
	fpShapeSeed  = 0x9e3779b97f4a7c15
	fpVertexSeed = 0xc2b2ae3d27d4eb4f
	fpBoundSeed  = 0x165667b19e3779f9
	fpMul        = 0xbf58476d1ce4e5b9
	fpFinMul     = 0x94d049bb133111eb
)

// Fingerprint returns a stable 64-bit content hash of g: a pure function
// of |V|, the weighted/typed flags, the partial-slice range and every
// vertex's adjacency (destinations, weight bits, type values),
// independent of how or when the graph was built. Two graphs have equal
// fingerprints exactly when a walk over them is indistinguishable, so the
// serving layer uses it as the identity check behind named graph
// registration: the same file loaded twice fingerprints identically,
// while any edge, weight, or type difference changes it.
//
// The hash decomposes per vertex: it is a shape hash plus the wrapping
// sum of VertexHash over the owned vertices. A change to some vertices'
// adjacency therefore moves the fingerprint by the difference of just
// those vertices' hashes, which is how internal/dyngraph keeps each
// epoch's fingerprint current in O(affected degree) per ingest batch.
//
// An overlay view hashes its resolved adjacency like a plain graph, plus
// one term per overlay vertex for its maintained maximum-weight bound:
// the bound feeds rejection envelopes, so it is walk-visible. The
// compacted view drops the bounds and hashes as the plain CSR of the
// same edges.
func Fingerprint(g *Graph) uint64 {
	lo, hi := g.OwnedRange()
	flags := uint64(0)
	if g.weight != nil {
		flags |= 1
	}
	if g.etype != nil {
		flags |= 2
	}
	if g.partial {
		flags |= 4
	}
	h := fpStep(fpShapeSeed, uint64(g.NumVertices()))
	h = fpStep(h, flags)
	h = fpStep(h, uint64(lo)|uint64(hi)<<32)
	sum := fpFinish(h)
	for v := lo; v < hi; v++ {
		sum += VertexHash(g, v)
	}
	if o := g.over; o != nil && o.maxW != nil {
		for i, v := range o.verts {
			sum += fpFinish(fpStep(fpStep(fpBoundSeed, uint64(v)), math.Float64bits(o.maxW[i])))
		}
	}
	return sum
}

// VertexHash returns v's term of Fingerprint: a hash of v, its degree and
// its out-edges (destinations, weight bits, type values), read through
// Neighbors/Weights/Types so an overlay view hashes v's live adjacency.
// Seeding by v makes two vertices with swapped adjacency hash
// differently. Panics, like Neighbors, for a vertex outside a partial
// slice's owned range.
func VertexHash(g *Graph, v VertexID) uint64 {
	dst, w, t := g.Neighbors(v), g.Weights(v), g.Types(v)
	h := fpStep(fpVertexSeed, uint64(v))
	h = fpStep(h, uint64(len(dst)))
	for i, d := range dst {
		x := uint64(d)
		if w != nil {
			x |= uint64(math.Float32bits(w[i])) << 32
		}
		h = fpStep(h, x)
		if t != nil {
			h = fpStep(h, uint64(uint32(t[i])))
		}
	}
	return fpFinish(h)
}

// fpStep mixes one 64-bit word into the running hash. Every step is a
// bijection of h for a fixed word, so no state collapses mid-stream.
func fpStep(h, x uint64) uint64 {
	return (bits.RotateLeft64(h, 29) ^ x) * fpMul
}

// fpFinish is the splitmix64 finalizer: full avalanche, so the per-vertex
// terms behave as independent uniform values and their sum stays a
// sound content hash.
func fpFinish(h uint64) uint64 {
	h ^= h >> 30
	h *= fpMul
	h ^= h >> 27
	h *= fpFinMul
	h ^= h >> 31
	return h
}
