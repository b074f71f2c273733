package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"knightking/internal/checkpoint"
	"knightking/internal/cluster"
	"knightking/internal/coord"
	"knightking/internal/core"
	"knightking/internal/graph"
	"knightking/internal/stats"
	"knightking/internal/transport"
)

// node2vec-cluster: the kkcoord/kkrank control plane in-process —
// coord.New/Run plus one coord.RunWorker per rank, exactly what the two
// commands call — over a loopback TCP mesh, running biased node2vec with
// checkpoints.
//
// Walks are 40 steps, half of deepwalk-outcache's 80, so a run has
// about twice as many jobs to take job_p90_ms over.
const (
	clRanks   = 2
	clLength  = 40
	clEvery   = 10 // checkpoint interval in supersteps
	clWalkDiv = 8  // walkers per job = |V| / clWalkDiv
)

func clusterSpec(path string, walkers int, seed uint64, ckptDir string) coord.JobSpec {
	return coord.JobSpec{
		GraphPath:       path,
		GraphBinary:     true,
		Alg:             "node2vec",
		Length:          clLength,
		P:               2,
		Q:               0.5,
		Biased:          true,
		Walkers:         walkers,
		Seed:            seed,
		Workers:         1,
		CheckpointDir:   ckptDir,
		CheckpointEvery: clEvery,
	}
}

// logClock timestamps progress lines, so control-plane phases can be read
// from the coordinator's and workers' Logf output.
type logClock struct {
	mu    sync.Mutex
	lines []timedLine
}

type timedLine struct {
	at   time.Time
	text string
}

func (l *logClock) logf(format string, args ...interface{}) {
	now := time.Now()
	text := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.lines = append(l.lines, timedLine{now, text})
	l.mu.Unlock()
}

// first returns the time of the first line containing substr.
func (l *logClock) first(substr string) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if strings.Contains(ln.text, substr) {
			return ln.at, true
		}
	}
	return time.Time{}, false
}

// all returns the times of every line containing substr.
func (l *logClock) all(substr string) []time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ts []time.Time
	for _, ln := range l.lines {
		if strings.Contains(ln.text, substr) {
			ts = append(ts, ln.at)
		}
	}
	return ts
}

// coordJob is one job through the real control plane.
type coordJob struct {
	sum *coord.Summary
	// setup is coordinator start until the start barrier is released;
	// walk is release until the coordinator reports the job done.
	setup, walk, wall time.Duration
	gather, prepare   time.Duration
	// loads are the ranks' graph-slice loads: assignment until each
	// worker reports its slice loaded.
	loads []time.Duration
}

func runCoordJob(spec coord.JobSpec) (*coordJob, error) {
	clock := &logClock{}
	start := time.Now()
	c, err := coord.New(coord.Options{Spec: spec, Ranks: clRanks, Logf: clock.logf, GatherTimeout: time.Minute})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	werrs := make([]error, clRanks)
	for r := 0; r < clRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			werrs[r] = coord.RunWorker(coord.WorkerOptions{CoordAddr: c.Addr(), Logf: clock.logf})
		}(r)
	}
	sum, err := c.Run()
	wall := time.Since(start)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for r, werr := range werrs {
		if werr != nil {
			return nil, fmt.Errorf("worker %d: %w", r, werr)
		}
	}
	listening, ok1 := clock.first("control plane on")
	assigning, ok2 := clock.first("attempt 1: assigning")
	released, ok3 := clock.first("releasing start barrier")
	done, ok4 := clock.first("job done")
	if !(ok1 && ok2 && ok3 && ok4) {
		return nil, fmt.Errorf("coordinator log is missing a phase line")
	}
	j := &coordJob{
		sum:     sum,
		setup:   released.Sub(start),
		walk:    done.Sub(released),
		wall:    wall,
		gather:  assigning.Sub(listening),
		prepare: released.Sub(assigning),
	}
	for _, t := range clock.all("loaded vertex slice") {
		j.loads = append(j.loads, t.Sub(assigning))
	}
	return j, nil
}

func (b *bench) checkCoordJob(j *coordJob, first *coord.Summary, walkers int) {
	s := j.sum
	b.check(s.Attempts == 1, "cluster attempts %d, want 1", s.Attempts)
	b.check(s.Failovers == 0, "cluster failovers %d, want 0", s.Failovers)
	b.check(s.Steps == int64(walkers)*clLength, "cluster steps %d, want %d", s.Steps, int64(walkers)*clLength)
	b.check(s.Terminations == int64(walkers), "cluster terminations %d, want %d", s.Terminations, walkers)
	b.check(len(j.loads) == clRanks, "cluster logged %d slice loads, want %d", len(j.loads), clRanks)
	if first != nil {
		b.check(s.Steps == first.Steps && s.Messages == first.Messages && s.Bytes == first.Bytes && s.Iterations == first.Iterations,
			"cluster summaries differ between jobs of one seed")
	}
}

// withCheckpointDir runs fn with a fresh checkpoint directory under
// workdir and removes the directory afterwards.
func withCheckpointDir(workdir string, fn func(dir string) error) error {
	root := filepath.Join(workdir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "ckpt-")
	if err != nil {
		return err
	}
	err = fn(dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

func runCluster(b *bench) error {
	in, err := ensureInput(b.workdir, twitterGraph, b.seed)
	if err != nil {
		return err
	}
	walkers := in.Vertices / clWalkDiv
	if b.trace {
		return traceCluster(b, in, walkers)
	}
	var first *coord.Summary
	var setups, walls, rates, loads []float64
	start := time.Now()
	for n := 0; n < minJobs || time.Since(start) < b.seconds; n++ {
		var j *coordJob
		if err := withCheckpointDir(b.workdir, func(dir string) (err error) {
			j, err = runCoordJob(clusterSpec(in.Path, walkers, b.seed, dir))
			return err
		}); err != nil {
			return err
		}
		b.checkCoordJob(j, first, walkers)
		if first == nil {
			first = j.sum
		}
		setups = append(setups, j.setup.Seconds())
		walls = append(walls, j.wall.Seconds())
		rates = append(rates, float64(j.sum.Steps)/j.walk.Seconds())
		for _, l := range j.loads {
			loads = append(loads, millis(l))
		}
		releaseMemory()
	}
	b.set("setup_s", median(setups))
	b.set("wall_s", median(walls))
	b.set("steps_per_s", median(rates))
	b.set("job_p50_ms", 1000*median(walls))
	b.set("job_p90_ms", 1000*quantile(walls, 0.9))
	b.set("ingest_p50_ms", median(loads))
	b.set("ingest_p90_ms", quantile(loads, 0.9))
	return nil
}

// rankJob is one rank of a manually driven cluster job.
type rankJob struct {
	load, connect time.Duration
	res           *core.Result
	sink          *timingSink
}

// manualJob drives the ranks of a cluster job through the public calls a
// kkrank worker makes — partial binary load, checkpoint store, TCP mesh,
// core.RunNode — without the control plane, so that a span observer and a
// timing checkpoint sink can be attached (kkrank exposes no hook).
type manualJob struct {
	partition time.Duration
	imbalance float64
	wall      time.Duration
	ranks     []rankJob
	spans     *spanRecorder // nil when untraced
}

func runManualJob(spec coord.JobSpec, traced bool) (*manualJob, error) {
	j := &manualJob{ranks: make([]rankJob, clRanks)}
	program, err := spec.Algorithm()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	starts, numVertices, imb, err := partitionFile(spec.GraphPath)
	if err != nil {
		return nil, err
	}
	j.partition = time.Since(start)
	j.imbalance = imb

	lns := make([]net.Listener, clRanks)
	addrs := make([]string, clRanks)
	for r := range lns {
		if lns[r], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		defer lns[r].Close()
		addrs[r] = lns[r].Addr().String()
	}
	if traced {
		j.spans = &spanRecorder{}
	}
	var wg sync.WaitGroup
	errs := make([]error, clRanks)
	for r := 0; r < clRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = runRank(&j.ranks[r], spec, program, starts, numVertices, r, lns[r], addrs, j.spans)
		}(r)
	}
	wg.Wait()
	j.wall = time.Since(start)
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return j, nil
}

// partitionFile computes the 1-D partition from a binary graph's degree
// header, as the coordinator does, and the partition's load imbalance.
func partitionFile(path string) ([]graph.VertexID, int, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close() // read-only
	hdr, err := graph.ReadBinaryDegrees(f)
	if err != nil {
		return nil, 0, 0, err
	}
	degrees := make([]int, hdr.NumVertices)
	for v := range degrees {
		degrees[v] = hdr.Degree(graph.VertexID(v))
	}
	part := cluster.Partition1DFromDegrees(degrees, clRanks, 1)
	loads := make([]float64, clRanks)
	for r := range loads {
		lo, hi := part.Range(r)
		for v := lo; v < hi; v++ {
			loads[r] += 1 + float64(degrees[v])
		}
	}
	return part.Starts(), hdr.NumVertices, imbalance(loads), nil
}

func runRank(rj *rankJob, spec coord.JobSpec, program *core.Algorithm, starts []graph.VertexID, numVertices, rank int, ln net.Listener, addrs []string, spans *spanRecorder) error {
	start := time.Now()
	f, err := os.Open(spec.GraphPath)
	if err != nil {
		return err
	}
	g, err := graph.ReadBinarySlice(f, starts[rank], starts[rank+1])
	f.Close() // read-only
	if err != nil {
		return err
	}
	rj.load = time.Since(start)

	store, err := checkpoint.NewStore(spec.CheckpointDir, spec.CheckpointEvery, checkpoint.Meta{
		Seed:        spec.Seed,
		NumWalkers:  uint64(spec.Walkers),
		NumVertices: uint64(numVertices),
		Algorithm:   program.Name,
	})
	if err != nil {
		return err
	}
	cfg := core.Config{
		Graph:           g,
		Algorithm:       program,
		Workers:         spec.Workers,
		NumWalkers:      spec.Walkers,
		Seed:            spec.Seed,
		PartitionStarts: starts,
		Checkpoint:      store,
	}
	if spans != nil {
		rj.sink = &timingSink{inner: store}
		cfg.Checkpoint = rj.sink
		cfg.Observer = spans
	}
	t := time.Now()
	ep, err := transport.DialTCPGroupOn(ln, rank, addrs, transport.TCPOptions{Nonce: 1})
	if err != nil {
		return err
	}
	defer ep.Close()
	rj.connect = time.Since(t)
	rj.res, err = core.RunNode(cfg, ep)
	return err
}

// totals sums the ranks' counters into the cluster-wide snapshot.
func (j *manualJob) totals() (stats.Snapshot, int) {
	var c stats.Counters
	iters := 0
	for _, r := range j.ranks {
		c.Add(r.res.Counters)
		if r.res.Iterations > iters {
			iters = r.res.Iterations
		}
	}
	return c.Snapshot(), iters
}

// traceCluster runs, on one seed, a control-plane job, an untraced manual
// job and a traced manual job, twice over. All six must do identical work;
// the traced jobs give the per-layer numbers, the manual pair gives the
// tracing overhead, and the control-plane job minus the untraced manual
// job gives the control plane's own cost.
func traceCluster(b *bench, in inputInfo, walkers int) error {
	want := int64(walkers) * clLength
	var first *coord.Summary
	var ref *stats.Snapshot
	var gathers, prepares, overheads, plainWalls, tracedWalls []float64
	var last *manualJob
	for round := 0; round < 2; round++ {
		var cj *coordJob
		if err := withCheckpointDir(b.workdir, func(dir string) (err error) {
			cj, err = runCoordJob(clusterSpec(in.Path, walkers, b.seed, dir))
			return err
		}); err != nil {
			return err
		}
		b.checkCoordJob(cj, first, walkers)
		if first == nil {
			first = cj.sum
		}
		gathers = append(gathers, cj.gather.Seconds())
		prepares = append(prepares, cj.prepare.Seconds())
		for _, traced := range []bool{false, true} {
			var j *manualJob
			if err := withCheckpointDir(b.workdir, func(dir string) (err error) {
				j, err = runManualJob(clusterSpec(in.Path, walkers, b.seed, dir), traced)
				return err
			}); err != nil {
				return err
			}
			snap, iters := j.totals()
			b.check(snap.Steps == want && snap.Terminations == int64(walkers),
				"manual cluster job: %d steps, %d terminations, want %d, %d", snap.Steps, snap.Terminations, want, walkers)
			b.check(snap.Messages == first.Messages && snap.BytesSent == first.Bytes && iters == first.Iterations,
				"manual cluster job differs from the control-plane job of the same seed")
			if ref == nil {
				ref = &snap
			}
			b.check(sameCounts(snap, *ref), "manual cluster jobs of one seed differ (traced=%v)", traced)
			if traced {
				tracedWalls = append(tracedWalls, j.wall.Seconds())
				last = j
			} else {
				plainWalls = append(plainWalls, j.wall.Seconds())
				overheads = append(overheads, (cj.wall - j.wall).Seconds())
			}
		}
	}

	snap, iters := last.totals()
	var load, connect, setup, write, commit time.Duration
	var ckptBytes int64
	commits := 0
	for _, r := range last.ranks {
		if r.load > load {
			load = r.load
		}
		connect += r.connect / clRanks
		setup += r.res.SetupDuration / clRanks
		write += r.sink.write / clRanks
		commit += r.sink.commit
		ckptBytes += r.sink.bytes
		commits += r.sink.commits
	}
	b.set("graph.load_s", load.Seconds())
	b.set("cluster.partition_s", last.partition.Seconds())
	b.set("cluster.load_imbalance", last.imbalance)
	b.set("core.setup_s", setup.Seconds())
	b.set("transport.connect_s", connect.Seconds())
	b.set("checkpoint.write_s", write.Seconds())
	b.set("checkpoint.commit_s", commit.Seconds())
	b.set("checkpoint.bytes", float64(ckptBytes))
	b.set("checkpoint.count", float64(commits))
	b.check(snap.CheckpointBytes == ckptBytes, "timing sink saw %d checkpoint bytes, engine counted %d", ckptBytes, snap.CheckpointBytes)
	// Ranks load and connect concurrently and the mesh waits for the
	// slower one, so load+connect is taken as one rank-mean span.
	var loadConnect time.Duration
	for _, r := range last.ranks {
		loadConnect += (r.load + r.connect) / clRanks
	}
	layersSetup := last.partition + loadConnect + setup
	b.setEngineLayers(snap, iters, last.ranks[0].res.LightIterations, last.spans.totals(), layersSetup, last.wall)
	b.set("coord.gather_s", median(gathers))
	b.set("coord.prepare_s", median(prepares))
	b.set("coord.overhead_s", median(overheads))
	b.set("trace.overhead", ratio(median(tracedWalls), median(plainWalls)))
	b.zero("service.queue_wait_ms_p50", "service.queue_wait_ms_p90", "service.run_ms_p50", "service.run_ms_p90",
		"dyngraph.apply_ms", "dyngraph.compactions", "dyngraph.compact_ms", "loadgen.late_ms_p90")
	return nil
}
