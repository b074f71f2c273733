package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"knightking/internal/core"
	"knightking/internal/graph"
	"knightking/internal/stats"
	"knightking/internal/transport"
)

// writeTestGraph generates a shortened input of the given shape into a
// temporary directory and returns its path.
func writeTestGraph(t *testing.T, s graphSpec, seed uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), s.key(seed)+".bin")
	g := s.generate(seed)
	if err := writeAtomic(path, func(w *bufio.Writer) error { return graph.WriteBinary(w, g) }); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		got   []entry
		table []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.table) {
			t.Fatalf("%s lists %d metrics, the benchmark measures %d", c.kind, len(c.got), len(c.table))
		}
		for i, d := range c.table {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), the benchmark measures %s (%s)", c.kind, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

// The span observer must not be a transport.Observer: the engine would
// then wrap every endpoint and bypass the in-process SendLocal path.
func TestSpanRecorderIsNotTransportObserver(t *testing.T) {
	var obs core.Observer = &spanRecorder{}
	if _, ok := obs.(transport.Observer); ok {
		t.Fatal("spanRecorder implements transport.Observer")
	}
}

// deterministicCounts is what a seed pins: the sampling counters,
// messages, bytes, supersteps and checkpoint bytes.
type deterministicCounts struct {
	snap       stats.Snapshot
	supersteps int
}

func assertSameCounts(t *testing.T, what string, a, b deterministicCounts) {
	t.Helper()
	if !sameCounts(a.snap, b.snap) || a.supersteps != b.supersteps {
		t.Errorf("%s: counts differ:\n%+v (%d supersteps)\n%+v (%d supersteps)", what, a.snap, a.supersteps, b.snap, b.supersteps)
	}
}

func TestDeepWalkDeterministicAndTraceTransparent(t *testing.T) {
	path := writeTestGraph(t, graphSpec{N: 3000, MinDeg: 4, Cap: 200, Alpha: 2.0, MaxW: 5, WAlpha: 2.0}, 5)
	run := func(traced bool) deterministicCounts {
		j, err := runDeepWalkJob(path, 5, 600, traced)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := j.res.Counters.Steps, int64(600*dwLength); got != want {
			t.Fatalf("steps %d, want %d", got, want)
		}
		if traced && len(j.spans.spans) == 0 {
			t.Fatal("traced job recorded no spans")
		}
		return deterministicCounts{j.res.Counters, j.res.Iterations}
	}
	first := run(false)
	assertSameCounts(t, "two untraced runs", first, run(false))
	assertSameCounts(t, "untraced vs traced", first, run(true))
}

func TestClusterDeterministicAndTraceTransparent(t *testing.T) {
	path := writeTestGraph(t, graphSpec{N: 3000, MinDeg: 4, Cap: 400, Alpha: 1.85, MaxW: 5, WAlpha: 2.0}, 7)
	const walkers = 600
	run := func(traced bool) (deterministicCounts, *manualJob) {
		j, err := runManualJob(clusterSpec(path, walkers, 7, t.TempDir()), traced)
		if err != nil {
			t.Fatal(err)
		}
		snap, iters := j.totals()
		if snap.Steps != walkers*clLength || snap.Checkpoints == 0 {
			t.Fatalf("steps %d (want %d), checkpoints %d", snap.Steps, walkers*clLength, snap.Checkpoints)
		}
		return deterministicCounts{snap, iters}, j
	}
	first, _ := run(false)
	second, _ := run(false)
	assertSameCounts(t, "two untraced runs", first, second)
	traced, j := run(true)
	assertSameCounts(t, "untraced vs traced", first, traced)
	var sinkBytes int64
	for _, r := range j.ranks {
		sinkBytes += r.sink.bytes
	}
	if sinkBytes != traced.snap.CheckpointBytes {
		t.Errorf("timing sink saw %d checkpoint bytes, engine counted %d", sinkBytes, traced.snap.CheckpointBytes)
	}

	// The control plane runs the same ranks: its summary must agree.
	cj, err := runCoordJob(clusterSpec(path, walkers, 7, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	s := cj.sum
	if s.Steps != first.snap.Steps || s.Messages != first.snap.Messages || s.Bytes != first.snap.BytesSent || s.Iterations != first.supersteps {
		t.Errorf("control-plane summary %+v differs from the manual ranks' %+v (%d supersteps)", s, first.snap, first.supersteps)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
