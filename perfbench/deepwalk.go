package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"knightking/internal/alg"
	"knightking/internal/cluster"
	"knightking/internal/core"
)

// deepwalk-outcache: in-process core.Run, 2 ranks x 1 worker, biased
// DeepWalk of length 80 over a graph whose walk working set is several
// times the last-level cache. Every job reloads the graph, so a job is
// what a kkwalk user waits for: load, partition, sampler build, walk.
const (
	dwRanks   = 2
	dwWalkers = 50_000
	dwLength  = 80
	// minJobs is the fewest jobs a run measures, so that setup_s and
	// wall_s are medians even when --seconds is short.
	minJobs = 3
)

type dwJob struct {
	load, partition time.Duration
	wall            time.Duration
	imbalance       float64
	res             *core.Result
	spans           *spanRecorder // nil when untraced
}

// runDeepWalkJob loads the graph, partitions it and walks it, timing each
// public call. A traced job records superstep spans.
func runDeepWalkJob(path string, seed uint64, walkers int, traced bool) (*dwJob, error) {
	j := &dwJob{}
	start := time.Now()
	g, err := loadGraph(path)
	if err != nil {
		return nil, err
	}
	j.load = time.Since(start)
	t := time.Now()
	part := cluster.Partition1D(g, dwRanks, 1)
	j.partition = time.Since(t)
	cfg := core.Config{
		Graph:           g,
		Algorithm:       alg.DeepWalk(dwLength, true),
		NumNodes:        dwRanks,
		Workers:         1,
		Seed:            seed,
		NumWalkers:      walkers,
		PartitionStarts: part.Starts(),
	}
	if traced {
		j.spans = &spanRecorder{}
		cfg.Observer = j.spans
	}
	if j.res, err = core.Run(cfg); err != nil {
		return nil, err
	}
	j.wall = time.Since(start)
	loads := make([]float64, dwRanks)
	for r := range loads {
		loads[r] = part.LoadEstimate(g, r, 1)
	}
	j.imbalance = imbalance(loads)
	return j, nil
}

// imbalance is max/mean of per-rank load estimates.
func imbalance(loads []float64) float64 {
	var max, sum float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	return ratio(max, sum/float64(len(loads)))
}

// releaseMemory returns a finished job's graph and tables to the OS so the
// next job's peak RSS does not stack on this one's.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// checkDeepWalk checks one job's output: every walker walked exactly the
// full length, and the job did exactly the work of the run's first job
// (same seed, so the counters must repeat).
func (b *bench) checkDeepWalk(res, first *core.Result, walkers int) {
	b.check(res.Counters.Steps == int64(walkers)*dwLength, "deepwalk steps %d, want %d", res.Counters.Steps, int64(walkers)*dwLength)
	b.check(res.Counters.Terminations == int64(walkers), "deepwalk terminations %d, want %d", res.Counters.Terminations, walkers)
	if first != nil {
		b.check(sameCounts(res.Counters, first.Counters) && res.Iterations == first.Iterations,
			"deepwalk counters differ between jobs of one seed")
	}
}

func runDeepWalk(b *bench) error {
	in, err := ensureInput(b.workdir, outcacheGraph, b.seed)
	if err != nil {
		return err
	}
	if b.trace {
		return traceDeepWalk(b, in)
	}
	var first *core.Result
	var setups, walls, rates, loads []float64
	start := time.Now()
	for n := 0; n < minJobs || time.Since(start) < b.seconds; n++ {
		j, err := runDeepWalkJob(in.Path, b.seed, dwWalkers, false)
		if err != nil {
			return err
		}
		b.checkDeepWalk(j.res, first, dwWalkers)
		if first == nil {
			first = j.res
		}
		setups = append(setups, (j.wall - j.res.Duration).Seconds())
		walls = append(walls, j.wall.Seconds())
		rates = append(rates, float64(j.res.Counters.Steps)/j.res.Duration.Seconds())
		loads = append(loads, millis(j.load))
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

// traceDeepWalk alternates untraced and traced jobs: the traced ones give
// the per-layer numbers, the pair gives the tracing overhead, and all of
// them must do identical work.
func traceDeepWalk(b *bench, in inputInfo) error {
	var first *core.Result
	var plain, traced []float64
	var last *dwJob
	for n := 0; n < 4; n++ {
		j, err := runDeepWalkJob(in.Path, b.seed, dwWalkers, n%2 == 1)
		if err != nil {
			return err
		}
		b.checkDeepWalk(j.res, first, dwWalkers)
		if first == nil {
			first = j.res
		}
		if j.spans == nil {
			plain = append(plain, j.wall.Seconds())
		} else {
			traced = append(traced, j.wall.Seconds())
			last = j
		}
		releaseMemory()
	}
	res := last.res
	b.set("graph.load_s", last.load.Seconds())
	b.set("cluster.partition_s", last.partition.Seconds())
	b.set("cluster.load_imbalance", last.imbalance)
	b.set("core.setup_s", res.SetupDuration.Seconds())
	setup := last.load + last.partition + res.SetupDuration
	b.setEngineLayers(res.Counters, res.Iterations, res.LightIterations, last.spans.totals(), setup, last.wall)
	b.set("trace.overhead", ratio(median(traced), median(plain)))
	b.zero("transport.connect_s",
		"checkpoint.write_s", "checkpoint.commit_s", "checkpoint.bytes", "checkpoint.count",
		"coord.gather_s", "coord.prepare_s", "coord.overhead_s",
		"service.queue_wait_ms_p50", "service.queue_wait_ms_p90", "service.run_ms_p50", "service.run_ms_p90",
		"dyngraph.apply_ms", "dyngraph.compactions", "dyngraph.compact_ms", "loadgen.late_ms_p90")
	return nil
}
