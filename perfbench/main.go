// Command perfbench is the repository benchmark: three workloads driven
// through the public entry points of internal/core, internal/coord and
// internal/service, each printing its end-to-end metrics (untraced run) or
// its per-layer metrics (traced run) as one JSON line. See README.md for
// the metric definitions and BENCHMARK.json for the contract.
//
//	perfbench --workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//	perfbench gen ...   (internal: generates one cached input graph)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric and its unit. The tables below are the single
// source of the names BENCHMARK.json lists; bench_test.go checks the two
// agree.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"steps_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p90_ms", "ms"},
}

var perLayer = []metricDef{
	{"graph.load_s", "s"},
	{"cluster.partition_s", "s"},
	{"cluster.load_imbalance", "ratio"},
	{"core.setup_s", "s"},
	{"core.compute_s", "s"},
	{"core.barrier_s", "s"},
	{"core.supersteps", "count"},
	{"core.light_supersteps", "count"},
	{"core.straggler_skew", "ratio"},
	{"sampling.edges_per_step", "ratio"},
	{"sampling.trials_per_step", "ratio"},
	{"sampling.pre_accept_ratio", "ratio"},
	{"sampling.appendix_hit_ratio", "ratio"},
	{"transport.connect_s", "s"},
	{"transport.exchange_s", "s"},
	{"transport.msgs", "count"},
	{"transport.bytes", "bytes"},
	{"transport.bytes_per_step", "bytes"},
	{"checkpoint.span_s", "s"},
	{"checkpoint.write_s", "s"},
	{"checkpoint.commit_s", "s"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.count", "count"},
	{"coord.gather_s", "s"},
	{"coord.prepare_s", "s"},
	{"coord.overhead_s", "s"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.run_ms_p90", "ms"},
	{"dyngraph.apply_ms", "ms"},
	{"dyngraph.compactions", "count"},
	{"dyngraph.compact_ms", "ms"},
	{"loadgen.late_ms_p90", "ms"},
	{"trace.wall_s", "s"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead", "ratio"},
}

// reconcileTolerance is the largest share of a traced job's wall time that
// may stay unattributed after summing its layers (setup, rank-mean
// compute, exchange, barrier and checkpoint). A traced run outside it
// fails its output check.
const reconcileTolerance = 0.05

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"deepwalk-outcache": runDeepWalk,
	"node2vec-cluster":  runCluster,
	"serve-ingest":      runServe,
}

// bench is one benchmark run: its arguments, its output checks, and the
// metrics it has measured so far.
type bench struct {
	workdir string
	seed    uint64
	seconds time.Duration
	trace   bool

	attempted, failed int
	metrics           map[string]float64
}

// check counts one operation or output check; a false ok is a failure and
// is described on stderr.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish fills ok_frac and renders the result line. Every metric of the
// run's kind must have been set by the workload (per-layer metrics a
// workload does not exercise are set to 0 explicitly).
func (b *bench) finish() (result, error) {
	b.set("peak_rss_mb", peakRSSMB())
	if b.attempted > 0 {
		b.set("ok_frac", 1-float64(b.failed)/float64(b.attempted))
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	out := result{
		Correct:   b.attempted > 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return out, fmt.Errorf("workload did not measure %s", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gen:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain() error {
	workdir := flag.String("workdir", ".bench_build", "directory for cached inputs and scratch files")
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %v)", *workload, names)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	b := &bench{
		workdir: *workdir,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		metrics: map[string]float64{},
	}
	if err := printJSONLine("machine", machineBlock()); err != nil {
		return err
	}
	start, steal0 := time.Now(), hostSteal()
	if err := run(b); err != nil {
		return err
	}
	wall, steal := time.Since(start), hostSteal()-steal0
	if err := printJSONLine("host", map[string]float64{
		"run_s":      wall.Seconds(),
		"steal_s":    steal.Seconds(),
		"steal_frac": ratio(steal.Seconds(), wall.Seconds()*float64(runtime.NumCPU())),
	}); err != nil {
		return err
	}
	out, err := b.finish()
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printJSONLine prints "label {json}" on stdout: the context lines that
// precede the result line.
func printJSONLine(label string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Printf("%s %s\n", label, line)
	return nil
}
