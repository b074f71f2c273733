package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"knightking/internal/rng"
)

// binaryHeader encodes a binary CSR header declaring nv vertices and ne
// edges with the given flags.
func binaryHeader(flags uint32, nv, ne uint64) []byte {
	var buf bytes.Buffer
	for _, x := range []interface{}{uint32(binaryMagic), uint32(binaryVersion), flags, nv, ne} {
		if err := binary.Write(&buf, binary.LittleEndian, x); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// allocDuring returns the bytes fn allocates.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadBinaryLyingHeaderAllocatesLittle: a header that declares a
// huge edge count over a short body must fail with an error after an
// allocation sized by the body, not by the header.
func TestReadBinaryLyingHeaderAllocatesLittle(t *testing.T) {
	for _, bodyEdges := range []int{3, 300_000} {
		const nv = 2
		declared := uint64(1) << 40
		data := binaryHeader(0, nv, declared)
		for _, off := range []int64{0, 1, int64(declared)} {
			data = binary.LittleEndian.AppendUint64(data, uint64(off))
		}
		for i := 0; i < bodyEdges; i++ {
			data = binary.LittleEndian.AppendUint32(data, uint32(i%nv))
		}
		var err error
		alloc := allocDuring(func() { _, err = ReadBinary(bytes.NewReader(data)) })
		if err == nil {
			t.Fatalf("%d-edge body under a 2^40-edge header accepted", bodyEdges)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d-edge body: error %v, want a wrapped io.ErrUnexpectedEOF", bodyEdges, err)
		}
		// Decode buffers and the doubling result slice stay within a small
		// multiple of the bytes actually present.
		limit := uint64(2<<20 + 8*len(data))
		if alloc > limit {
			t.Fatalf("%d-edge body: allocated %d bytes, want at most %d", bodyEdges, alloc, limit)
		}
	}
}

// multiChunkGraph builds a weighted, typed graph with enough edges that
// every edge array spans several decoder chunks.
func multiChunkGraph() *Graph {
	r := rng.New(41)
	const n = 5000
	b := NewBuilder(n)
	for i := 0; i < 200_000; i++ {
		b.AddTypedEdge(VertexID(r.Intn(n)), VertexID(r.Intn(n)), float32(r.Range(0.5, 7)), int32(r.Intn(5)))
	}
	return b.Build()
}

// TestReadBinaryTruncated: input cut inside a chunk, or exactly at a chunk
// boundary, fails with a wrapped io.ErrUnexpectedEOF from both the full
// and the sliced loader.
func TestReadBinaryTruncated(t *testing.T) {
	g := multiChunkGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	dstStart := len(binaryHeader(0, 0, 0)) + 8*(g.NumVertices()+1)
	cuts := map[string]int{
		"mid-chunk":      dstStart + 4*(1<<16) + 4*1000 + 2,
		"chunk boundary": dstStart + 4*(1<<16),
		"last byte":      len(full) - 1,
	}
	for name, cut := range cuts {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("ReadBinary cut at %s: error %v, want a wrapped io.ErrUnexpectedEOF", name, err)
		}
	}
	_, hi := g.OwnedRange()
	if _, err := ReadBinarySlice(bytes.NewReader(full[:len(full)-1]), 0, hi); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadBinarySlice of a truncated file: error %v, want a wrapped io.ErrUnexpectedEOF", err)
	}
}
