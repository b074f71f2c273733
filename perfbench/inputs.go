package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"knightking/internal/gen"
	"knightking/internal/graph"
)

// graphSpec is one generated input: gen.TruncatedPowerLaw topology with
// gen.WithPowerLawWeights edge weights, both derived from the run's seed.
type graphSpec struct {
	N      int     // vertices
	MinDeg int     // power-law lower degree bound
	Cap    int     // power-law degree cap
	Alpha  float64 // degree exponent
	MaxW   float32 // largest edge weight (weights lie in [1, MaxW])
	WAlpha float64 // weight exponent
}

var (
	// outcacheGraph is the deepwalk-outcache input: its CSR plus alias
	// tables are several times the last-level cache (see inputInfo).
	outcacheGraph = graphSpec{N: 400_000, MinDeg: 8, Cap: 2000, Alpha: 2.0, MaxW: 5, WAlpha: 2.0}
	// twitterGraph is the node2vec-cluster and serve-ingest input: a
	// Twitter-like skewed degree law at a size that stays in cache.
	twitterGraph = graphSpec{N: 48_000, MinDeg: 6, Cap: 6000, Alpha: 1.85, MaxW: 5, WAlpha: 2.0}
)

// params names the generator parameters; key adds the seed and names the
// cached files.
func (s graphSpec) params() string {
	return fmt.Sprintf("tpl-n%d-d%d-c%d-a%g-w%g-wa%g", s.N, s.MinDeg, s.Cap, s.Alpha, s.MaxW, s.WAlpha)
}

func (s graphSpec) key(seed uint64) string { return fmt.Sprintf("%s-s%d", s.params(), seed) }

func (s graphSpec) generate(seed uint64) *graph.Graph {
	g := gen.TruncatedPowerLaw(s.N, s.MinDeg, s.Cap, s.Alpha, seed)
	return gen.WithPowerLawWeights(g, s.MaxW, s.WAlpha, seed^0x77656967687473) // "weights"
}

// inputInfo records what a cached input is, so that "out of cache" is a
// measured statement: WorkingSetBytes against the machine's LLC.
type inputInfo struct {
	Path      string `json:"-"`
	Vertices  int    `json:"vertices"`
	Edges     int64  `json:"edges"`
	MinDegree int    `json:"min_degree"`
	MaxDegree int    `json:"max_degree"`
	FileBytes int64  `json:"file_bytes"`
	// WorkingSetBytes is the memory a biased walk touches at random: the
	// CSR (8-byte offsets, 4-byte targets, 4-byte weights) plus one
	// sampling.Alias table per vertex (8-byte probabilities, 4-byte
	// aliases, 8-byte weights per edge).
	WorkingSetBytes int64   `json:"working_set_bytes"`
	LLCBytes        int64   `json:"llc_bytes"`
	WorkingSetLLC   float64 `json:"working_set_over_llc"`
}

func workingSetBytes(vertices int, edges int64) int64 {
	return 8*int64(vertices+1) + (4+4)*edges + (8+4+8)*edges
}

// ensureInput returns the cached input for (spec, seed), generating it
// first in a child process when it is missing, so that generation memory
// never shows in the measuring process's peak RSS.
func ensureInput(workdir string, s graphSpec, seed uint64) (inputInfo, error) {
	dir := filepath.Join(workdir, "inputs")
	base := filepath.Join(dir, s.key(seed))
	info, err := readInfo(base)
	if err == nil {
		return info, printJSONLine("input", info)
	}
	if !errors.Is(err, os.ErrNotExist) {
		return info, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return info, err
	}
	if err := evictInputs(dir, s, keepInputs-1); err != nil {
		return info, err
	}
	self, err := os.Executable()
	if err != nil {
		return info, err
	}
	cmd := exec.Command(self, "gen",
		"-n", fmt.Sprint(s.N), "-mindeg", fmt.Sprint(s.MinDeg), "-cap", fmt.Sprint(s.Cap),
		"-alpha", fmt.Sprint(s.Alpha), "-maxw", fmt.Sprint(s.MaxW), "-walpha", fmt.Sprint(s.WAlpha),
		"-seed", fmt.Sprint(seed), "-out", base)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return info, fmt.Errorf("generate %s: %w", s.key(seed), err)
	}
	if info, err = readInfo(base); err != nil {
		return info, err
	}
	return info, printJSONLine("input", info)
}

// keepInputs bounds the cached inputs per spec: every seed is a new graph,
// and a benchmark series over many seeds must not fill the disk.
const keepInputs = 3

// evictInputs removes all but the keep most recently written inputs of
// spec s.
func evictInputs(dir string, s graphSpec, keep int) error {
	metas, err := filepath.Glob(filepath.Join(dir, s.params()+"-s*.json"))
	if err != nil {
		return err
	}
	sort.Slice(metas, func(i, j int) bool { return modTime(metas[i]).After(modTime(metas[j])) })
	for i := keep; i < len(metas); i++ {
		base := strings.TrimSuffix(metas[i], ".json")
		for _, p := range []string{base + ".json", base + ".bin"} {
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

func modTime(path string) time.Time {
	fi, err := os.Stat(path)
	if err != nil {
		return time.Time{}
	}
	return fi.ModTime()
}

// readInfo reads the metadata of the cached input at base, failing with
// os.ErrNotExist unless both the metadata and the graph file exist (the
// metadata is written last).
func readInfo(base string) (inputInfo, error) {
	var info inputInfo
	b, err := os.ReadFile(base + ".json")
	if err != nil {
		return info, err
	}
	if err := json.Unmarshal(b, &info); err != nil {
		return info, err
	}
	info.Path = base + ".bin"
	_, err = os.Stat(info.Path)
	return info, err
}

// genMain is the child-process generator: it writes <out>.bin and then
// <out>.json, each through a rename so an interrupted run leaves no
// half-written input behind.
func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var s graphSpec
	var maxW float64
	fs.IntVar(&s.N, "n", 0, "vertices")
	fs.IntVar(&s.MinDeg, "mindeg", 0, "minimum degree")
	fs.IntVar(&s.Cap, "cap", 0, "degree cap")
	fs.Float64Var(&s.Alpha, "alpha", 0, "degree exponent")
	fs.Float64Var(&maxW, "maxw", 0, "largest edge weight")
	fs.Float64Var(&s.WAlpha, "walpha", 0, "weight exponent")
	seed := fs.Uint64("seed", 0, "seed")
	out := fs.String("out", "", "output path without extension")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || s.N <= 0 {
		return fmt.Errorf("need -out and -n")
	}
	s.MaxW = float32(maxW)

	g := s.generate(*seed)
	st := g.Stats()
	if st.Min < 1 {
		// A dead end would end walks early and break the step-count checks.
		return fmt.Errorf("generated graph has a vertex without edges")
	}
	binPath := *out + ".bin"
	if err := writeAtomic(binPath, func(w *bufio.Writer) error { return graph.WriteBinary(w, g) }); err != nil {
		return err
	}
	fi, err := os.Stat(binPath)
	if err != nil {
		return err
	}
	ws := workingSetBytes(g.NumVertices(), g.NumEdges())
	llc := llcBytes()
	info := inputInfo{
		Vertices:        g.NumVertices(),
		Edges:           g.NumEdges(),
		MinDegree:       st.Min,
		MaxDegree:       st.Max,
		FileBytes:       fi.Size(),
		WorkingSetBytes: ws,
		LLCBytes:        llc,
		WorkingSetLLC:   ratio(float64(ws), float64(llc)),
	}
	return writeAtomic(*out+".json", func(w *bufio.Writer) error {
		return json.NewEncoder(w).Encode(info)
	})
}

func writeAtomic(path string, fill func(*bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadGraph reads a whole binary graph file.
func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only
	return graph.ReadBinary(bufio.NewReaderSize(f, 1<<20))
}
