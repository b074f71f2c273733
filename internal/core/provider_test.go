package core

import (
	"reflect"
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/sampling"
)

// tableProvider is a SamplerProvider over prebuilt tables, with nil
// holes to exercise the per-vertex fallback.
type tableProvider struct {
	kind string
	tabs []sampling.StaticSampler
}

func (p *tableProvider) StaticSampler(v graph.VertexID) sampling.StaticSampler {
	return p.tabs[v]
}
func (p *tableProvider) StaticKind() string { return p.kind }

func buildProvider(t *testing.T, g *graph.Graph, kind string, skip func(v int) bool) *tableProvider {
	t.Helper()
	p := &tableProvider{kind: kind, tabs: make([]sampling.StaticSampler, g.NumVertices())}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VertexID(v)) == 0 || (skip != nil && skip(v)) {
			continue
		}
		var (
			s   sampling.StaticSampler
			err error
		)
		if kind == "its" {
			s, err = sampling.NewITS(g.Weights(graph.VertexID(v)))
		} else {
			s, err = sampling.NewAlias(g.Weights(graph.VertexID(v)))
		}
		if err != nil {
			t.Fatal(err)
		}
		p.tabs[v] = s
	}
	return p
}

// TestProviderMatchesLocalBuild: a run handed prebuilt edge-weight
// tables is bit-identical to one that builds them itself — including a
// provider with per-vertex holes — for both sampler kinds and across
// multiple ranks.
func TestProviderMatchesLocalBuild(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(120, 6, 71), 1, 5, 72)
	algo := func() *Algorithm {
		return &Algorithm{Name: "wstatic", Biased: true, MaxSteps: 30}
	}
	for _, kind := range []string{"", "alias", "its"} {
		base := Config{
			Graph: g, Algorithm: algo(), NumWalkers: 200, NumNodes: 2,
			Seed: 73, RecordPaths: true, SamplerKind: kind,
		}
		ref, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		effective := kind
		if effective == "" {
			effective = "alias"
		}
		withProvider := base
		withProvider.Algorithm = algo()
		withProvider.Samplers = buildProvider(t, g, effective, nil)
		got, err := Run(withProvider)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePaths(t, ref.Paths, got.Paths)

		holes := base
		holes.Algorithm = algo()
		holes.Samplers = buildProvider(t, g, effective, func(v int) bool { return v%3 == 0 })
		got, err = Run(holes)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePaths(t, ref.Paths, got.Paths)
	}
}

// TestProviderIgnoredWhenInapplicable: kind mismatches and algorithms
// with their own static weights must bypass the provider entirely.
func TestProviderIgnoredWhenInapplicable(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(60, 5, 77), 1, 5, 78)

	// Kind mismatch: provider built as ITS, engine wants alias. The run
	// must match the local-build reference, not fail or use the tables.
	ref, err := Run(Config{
		Graph: g, Algorithm: &Algorithm{Name: "a", Biased: true, MaxSteps: 10},
		NumWalkers: 100, Seed: 79, RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{
		Graph: g, Algorithm: &Algorithm{Name: "a", Biased: true, MaxSteps: 10},
		NumWalkers: 100, Seed: 79, RecordPaths: true,
		Samplers: buildProvider(t, g, "its", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSamePaths(t, ref.Paths, got.Paths)

	// EdgeStaticComp overrides the static weights: tables built from the
	// raw edge weights no longer apply and must be ignored.
	algWithStatic := func() *Algorithm {
		return &Algorithm{
			Name: "meta", Biased: true, MaxSteps: 10,
			EdgeStaticComp: func(g *graph.Graph, v graph.VertexID, i int) float32 {
				if g.EdgeAt(v, i).Dst%2 == 0 {
					return 0.25
				}
				return g.EdgeWeight(v, i)
			},
		}
	}
	ref, err = Run(Config{
		Graph: g, Algorithm: algWithStatic(), NumWalkers: 100, Seed: 81, RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err = Run(Config{
		Graph: g, Algorithm: algWithStatic(), NumWalkers: 100, Seed: 81, RecordPaths: true,
		Samplers: buildProvider(t, g, "alias", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSamePaths(t, ref.Paths, got.Paths)
}

// TestProviderStaleEpochPanics: tables whose item count disagrees with
// the graph's degree (a provider from a different epoch) must panic
// loudly instead of sampling garbage.
func TestProviderStaleEpochPanics(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(20, 4, 83), 1, 5, 84)
	p := &tableProvider{kind: "alias", tabs: make([]sampling.StaticSampler, g.NumVertices())}
	tab, err := sampling.NewAlias([]float32{1, 2}) // wrong size for deg-4 vertices
	if err != nil {
		t.Fatal(err)
	}
	p.tabs[0] = tab
	defer func() {
		if recover() == nil {
			t.Fatal("stale provider table did not panic")
		}
	}()
	_, _ = Run(Config{
		Graph: g, Algorithm: &Algorithm{Name: "a", Biased: true, MaxSteps: 5},
		NumWalkers: 10, Seed: 85, Samplers: p,
	})
}

// TestProviderSizesSlabFromMisses: the alias slabs cover only the
// vertices the provider does not serve. A provider serving every vertex
// leaves both slabs empty; one with holes leaves exactly the holes' edges
// to build, and those tables match a fresh NewAlias.
func TestProviderSizesSlabFromMisses(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(90, 5, 86), 1, 5, 87)
	hole := func(v int) bool { return v%7 == 3 }
	for _, tc := range []struct {
		name string
		skip func(int) bool
	}{{"full", nil}, {"holes", hole}} {
		cfg := Config{
			Graph: g, Algorithm: &Algorithm{Name: "a", Biased: true, MaxSteps: 5},
			Workers: 3, Samplers: buildProvider(t, g, "alias", tc.skip),
		}
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		n := &node{cfg: &cfg, g: g, alg: cfg.Algorithm, lo: 10, hi: 80}
		n.buildSamplers()
		wantTables, wantCells := 0, 0
		for v := n.lo; v < n.hi; v++ {
			if tc.skip != nil && tc.skip(int(v)) {
				wantTables++
				wantCells += g.Degree(v)
			}
		}
		if len(n.aliases) != wantTables || len(n.cells) != wantCells {
			t.Fatalf("%s: slabs hold %d tables / %d cells, want %d / %d",
				tc.name, len(n.aliases), len(n.cells), wantTables, wantCells)
		}
		for v := n.lo; v < n.hi; v++ {
			got := n.samplers[v-n.lo]
			if tc.skip == nil || !tc.skip(int(v)) {
				if got != cfg.Samplers.StaticSampler(v) {
					t.Fatalf("%s: vertex %d does not use its provided table", tc.name, v)
				}
				continue
			}
			want, err := sampling.NewAlias(g.Weights(v))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: slab table of vertex %d differs from NewAlias", tc.name, v)
			}
		}
	}
}
