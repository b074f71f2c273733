package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"knightking/internal/dyngraph"
	"knightking/internal/graph"
	"knightking/internal/rng"
	"knightking/internal/service"
	"knightking/internal/stats"
)

// serve-ingest: kkserve in-process (service.New with default workers and
// queue, Start on loopback), driven over HTTP as an open loop: jobs arrive
// at a fixed rate from a seed-determined cycle, and edge-insert batches
// arrive on their own fixed schedule, with auto-compaction during the run.
const (
	serveJobRate    = 4.0 // job submissions per second
	serveIngestRate = 4.0 // ingest batches per second
	serveBatch      = 100 // edges per ingest batch
	serveWalkers    = 1000
	serveLength     = 40
	// serveCompactAfter makes the service compact the delta overlay every
	// 20 batches, a few times per run.
	serveCompactAfter = 20 * serveBatch
	serveSetups       = 3
	// servePoll is how often the client polls an unfinished job.
	servePoll = 5 * time.Millisecond
	// serveDrain bounds the wait for jobs still running when the arrival
	// schedule ends; a job unfinished by then counts as failed.
	serveDrain = 60 * time.Second
	serveGraph = "g"
)

// serveCycle is the repeating job mix: six biased DeepWalk and two biased
// node2vec jobs on 1 rank x 1 worker, in a seed-determined order with
// seed-determined walk seeds, one in four traced by the service. One rank
// keeps two concurrent jobs and an ingest batch within nproc (2) CPUs; a
// 2-rank job would stall at every barrier while either rank waits for a
// CPU, which makes its latency track the host's load. The two
// kinds differ in cost, so the mix is kept away from 50/50: job_p50_ms
// then falls among the DeepWalk jobs and job_p90_ms among the node2vec
// jobs instead of jumping between them from seed to seed.
func serveCycle(seed uint64) []service.JobSpec {
	r := rng.New(seed ^ 0x7365727665) // "serve"
	cycle := make([]service.JobSpec, 8)
	for i := range cycle {
		spec := service.JobSpec{
			Graph:   serveGraph,
			Alg:     "deepwalk",
			Length:  serveLength,
			Biased:  true,
			Seed:    r.Uint64(),
			Walkers: serveWalkers,
			Nodes:   1,
			Workers: 1,
			Trace:   i == 3 || i == 5,
		}
		if i == 1 || i == 5 {
			spec.Alg, spec.P, spec.Q = "node2vec", 2, 0.5
		}
		cycle[i] = spec
	}
	r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

// ingestBatches returns n seed-determined insert batches, encoded as
// POST /graphs/{name}/edges bodies.
func ingestBatches(seed uint64, n, numVertices int) ([][]byte, error) {
	r := rng.New(seed ^ 0x696e67657374) // "ingest"
	bodies := make([][]byte, n)
	for i := range bodies {
		edges := make([]dyngraph.Delta, serveBatch)
		for k := range edges {
			src := r.Intn(numVertices)
			dst := r.Intn(numVertices - 1)
			if dst >= src {
				dst++ // no self-loops
			}
			edges[k] = dyngraph.Delta{
				Op:     dyngraph.OpInsert,
				Src:    graph.VertexID(src),
				Dst:    graph.VertexID(dst),
				Weight: float32(r.Range(1, 5)),
			}
		}
		b, err := json.Marshal(map[string]any{"edges": edges})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// startService builds and starts one service with the graph registered:
// the work setup_s times.
func startService(g *graph.Graph) (*service.Service, error) {
	svc := service.New(service.Config{Addr: "127.0.0.1:0", CompactAfter: serveCompactAfter})
	if _, err := svc.Graphs.Register(serveGraph, g); err != nil {
		svc.Close()
		return nil, err
	}
	if err := svc.Start(); err != nil {
		svc.Close()
		return nil, err
	}
	return svc, nil
}

type jobRecord struct {
	spec service.JobSpec
	due  time.Time
	late time.Duration
	id   string
	// latency is due time until the client saw the outcome.
	latency time.Duration
	err     string
	result  service.JobResult
	status  service.JobStatus // traced passes only
}

type ingestRecord struct {
	late, latency time.Duration
	err           string
}

// pass is one open-loop run against one service.
type pass struct {
	jobs     []*jobRecord
	ingests  []ingestRecord
	makespan time.Duration
	// metrics is /metrics after the pass, and scrapeErr why reading it
	// failed (traced passes only).
	metrics   map[string]float64
	scrapeErr string
}

type loadgen struct {
	base   string
	client *http.Client
	cycle  []service.JobSpec
	bodies [][]byte // ingest batches
	jobs   int
	traced bool
}

func newLoadgen(addr string, cycle []service.JobSpec, bodies [][]byte, jobs int, traced bool) *loadgen {
	// At most nproc (2) connections: one loop submits and polls jobs, the
	// other sends ingest batches.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return &loadgen{
		base:   "http://" + addr,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		cycle:  cycle,
		bodies: bodies,
		jobs:   jobs,
		traced: traced,
	}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// do sends one request and decodes a JSON response into out when the
// status is one of the accepted codes.
func (lg *loadgen) do(method, path string, body []byte, out any, accept ...int) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, lg.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	for _, code := range accept {
		if resp.StatusCode == code {
			if out == nil {
				return code, nil
			}
			return code, json.Unmarshal(data, out)
		}
	}
	return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
}

func (lg *loadgen) run() pass {
	t0 := time.Now().Add(50 * time.Millisecond)
	var p pass
	var wg sync.WaitGroup
	var ingestEnd time.Time
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.ingests, ingestEnd = lg.runIngest(t0)
	}()
	jobsEnd := lg.runJobs(t0, &p)
	wg.Wait()
	if ingestEnd.After(jobsEnd) {
		jobsEnd = ingestEnd
	}
	p.makespan = jobsEnd.Sub(t0)
	if lg.traced {
		lg.collect(&p)
	}
	return p
}

// dueAt is when the k-th arrival of a schedule at rate per second is due.
func dueAt(t0 time.Time, k float64, rate float64) time.Time {
	return t0.Add(time.Duration(k / rate * float64(time.Second)))
}

// runIngest sends every batch at its due time (half a period after t0,
// interleaving with job arrivals) and returns when the last reply is in.
func (lg *loadgen) runIngest(t0 time.Time) ([]ingestRecord, time.Time) {
	recs := make([]ingestRecord, len(lg.bodies))
	for k, body := range lg.bodies {
		due := dueAt(t0, float64(k)+0.5, serveIngestRate)
		time.Sleep(time.Until(due))
		recs[k].late = time.Since(due)
		var resp struct {
			Applied int `json:"applied"`
		}
		_, err := lg.do("POST", "/graphs/"+serveGraph+"/edges", body, &resp, http.StatusOK)
		recs[k].latency = time.Since(due)
		switch {
		case err != nil:
			recs[k].err = err.Error()
		case resp.Applied != serveBatch:
			recs[k].err = fmt.Sprintf("applied %d of %d edges", resp.Applied, serveBatch)
		}
	}
	return recs, time.Now()
}

// runJobs submits jobs at their due times and polls the unfinished ones in
// between, until every job has an outcome or the drain deadline passes.
func (lg *loadgen) runJobs(t0 time.Time, p *pass) time.Time {
	deadline := dueAt(t0, float64(lg.jobs), serveJobRate).Add(serveDrain)
	var pending []*jobRecord
	next := 0
	last := t0
	for next < lg.jobs || len(pending) > 0 {
		now := time.Now()
		if next < lg.jobs && !now.Before(dueAt(t0, float64(next), serveJobRate)) {
			rec := &jobRecord{spec: lg.cycle[next%len(lg.cycle)], due: dueAt(t0, float64(next), serveJobRate)}
			rec.late = now.Sub(rec.due)
			body, err := json.Marshal(rec.spec)
			var st service.JobStatus
			if err == nil {
				_, err = lg.do("POST", "/jobs", body, &st, http.StatusAccepted)
			}
			p.jobs = append(p.jobs, rec)
			if err != nil {
				rec.err, rec.latency = err.Error(), time.Since(rec.due)
			} else {
				rec.id = st.ID
				pending = append(pending, rec)
			}
			next++
			continue
		}
		if now.After(deadline) {
			for _, rec := range pending {
				rec.err, rec.latency = "unfinished at the drain deadline", now.Sub(rec.due)
			}
			break
		}
		kept := pending[:0]
		for _, rec := range pending {
			if lg.poll(rec) {
				last = time.Now()
			} else {
				kept = append(kept, rec)
			}
		}
		pending = kept
		wake := time.Now().Add(servePoll)
		if next < lg.jobs && dueAt(t0, float64(next), serveJobRate).Before(wake) {
			wake = dueAt(t0, float64(next), serveJobRate)
		}
		time.Sleep(time.Until(wake))
	}
	return last
}

// collect reads, after a traced pass, every job's status timestamps and
// the service's /metrics page.
func (lg *loadgen) collect(p *pass) {
	for _, rec := range p.jobs {
		if rec.id != "" {
			if _, err := lg.do("GET", "/jobs/"+rec.id, nil, &rec.status, http.StatusOK); err != nil && rec.err == "" {
				rec.err = err.Error()
			}
		}
	}
	m, err := lg.scrape()
	if err != nil {
		p.scrapeErr = err.Error()
	}
	p.metrics = m
}

// poll asks for one job's result and reports whether the job has an
// outcome.
func (lg *loadgen) poll(rec *jobRecord) bool {
	var res service.JobResult
	code, err := lg.do("GET", "/jobs/"+rec.id+"/result", nil, &res, http.StatusOK, http.StatusConflict)
	switch {
	case err != nil:
		rec.err = err.Error()
	case code == http.StatusOK:
		rec.result = res
	case res.State.Terminal():
		// 409 carries the status: the job ended without a result.
		rec.err = fmt.Sprintf("job ended %s", res.State)
	default:
		return false
	}
	rec.latency = time.Since(rec.due)
	return true
}

// scrape reads the service's Prometheus page into name -> value.
func (lg *loadgen) scrape() (map[string]float64, error) {
	resp, err := lg.client.Get(lg.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// checkPass counts every submission and ingest and checks their outcomes:
// each job done with the full step count, each batch applied with 200.
func (b *bench) checkPass(p pass) {
	for _, rec := range p.jobs {
		want := int64(rec.spec.Walkers) * int64(rec.spec.Length)
		ok := rec.err == "" && rec.result.State == service.StateDone && rec.result.Report.Steps == want
		b.check(ok, "job %s (%s): err=%q state=%s steps=%d want %d",
			rec.id, rec.spec.Alg, rec.err, rec.result.State, rec.result.Report.Steps, want)
	}
	for k, rec := range p.ingests {
		b.check(rec.err == "", "ingest batch %d: %s", k, rec.err)
	}
	if p.scrapeErr != "" {
		b.check(false, "scrape /metrics: %s", p.scrapeErr)
	}
}

func jobLatencies(p pass) []float64 {
	xs := make([]float64, len(p.jobs))
	for i, rec := range p.jobs {
		xs[i] = millis(rec.latency)
	}
	return xs
}

// jobStepRate is the pass's walk throughput: all jobs' steps over their
// walk time, with each job's walk time (report.duration_seconds) replaced
// by the median of its algorithm's jobs, so that a few jobs slowed by the
// host do not move the figure.
func jobStepRate(p pass) float64 {
	durations := map[string][]float64{}
	var steps int64
	for _, rec := range p.jobs {
		steps += rec.result.Report.Steps
		durations[rec.spec.Alg] = append(durations[rec.spec.Alg], rec.result.Report.DurationSeconds)
	}
	var walk float64
	for _, ds := range durations {
		walk += float64(len(ds)) * median(ds)
	}
	return ratio(float64(steps), walk)
}

func runServe(b *bench) error {
	in, err := ensureInput(b.workdir, twitterGraph, b.seed)
	if err != nil {
		return err
	}
	start := time.Now()
	g, err := loadGraph(in.Path)
	if err != nil {
		return err
	}
	load := time.Since(start)
	cycle := serveCycle(b.seed)
	nJobs := int(serveJobRate * b.seconds.Seconds())
	bodies, err := ingestBatches(b.seed, int(serveIngestRate*b.seconds.Seconds()), in.Vertices)
	if err != nil {
		return err
	}

	var setups []float64
	var svc *service.Service
	for i := 0; i < serveSetups; i++ {
		if svc != nil {
			svc.Close()
			releaseMemory()
		}
		start := time.Now()
		if svc, err = startService(g); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	lg := newLoadgen(svc.Addr(), cycle, bodies, nJobs, false)
	p := lg.run()
	lg.close()
	svc.Close()
	b.checkPass(p)

	if !b.trace {
		ingest := make([]float64, len(p.ingests))
		for i, rec := range p.ingests {
			ingest[i] = millis(rec.latency)
		}
		lat := jobLatencies(p)
		b.set("setup_s", median(setups))
		b.set("wall_s", p.makespan.Seconds())
		b.set("steps_per_s", jobStepRate(p))
		b.set("job_p50_ms", median(lat))
		b.set("job_p90_ms", quantile(lat, 0.9))
		b.set("ingest_p50_ms", median(ingest))
		b.set("ingest_p90_ms", quantile(ingest, 0.9))
		return nil
	}

	// Traced: a second pass on a fresh service that also reads every job's
	// status timestamps and the /metrics page.
	releaseMemory()
	if svc, err = startService(g); err != nil {
		return err
	}
	lg = newLoadgen(svc.Addr(), cycle, bodies, nJobs, true)
	tp := lg.run()
	lg.close()
	svc.Close()
	b.checkPass(tp)
	b.setServeLayers(tp, load)
	b.set("trace.overhead", ratio(median(jobLatencies(tp)), median(jobLatencies(p))))
	return nil
}

// setServeLayers records the per-layer metrics of a traced pass: job
// status timestamps, engine reports, and the service's /metrics page.
func (b *bench) setServeLayers(p pass, load time.Duration) {
	var waits, runs, setups, exchanges, supersteps, light, lates, unattributed []float64
	var c stats.Snapshot
	for _, rec := range p.jobs {
		lates = append(lates, millis(rec.late))
		st, rep := rec.status, rec.result.Report
		if rec.err != "" || st.StartedAt.IsZero() || st.FinishedAt.IsZero() {
			continue
		}
		wait, run := st.StartedAt.Sub(st.SubmittedAt), st.FinishedAt.Sub(st.StartedAt)
		waits = append(waits, millis(wait))
		runs = append(runs, millis(run))
		unattributed = append(unattributed, ratio((rec.latency-rec.late-wait-run).Seconds(), rec.latency.Seconds()))
		setups = append(setups, rep.SetupSeconds)
		exchanges = append(exchanges, rep.ExchangeSeconds)
		supersteps = append(supersteps, float64(rep.Supersteps))
		light = append(light, float64(rep.LightSupers))
		trials := rep.TrialsPerStep * float64(rep.Steps)
		c.Steps += rep.Steps
		c.EdgeProbEvals += int64(rep.EdgesPerStep * float64(rep.Steps))
		c.Trials += int64(trials)
		c.PreAccepts += int64(rep.PreAcceptRatio * trials)
		c.AppendixHits += int64(rep.AppendixHitRatio * trials)
		c.Messages += rep.Messages
		c.BytesSent += rep.BytesSent
	}
	// kkserve times only explicit compactions (serve_compact_us); the
	// auto-compactions run inside the ingest call whose batch crosses
	// CompactAfter, so their cost is read from the client side: the extra
	// latency of those batches over the median batch.
	var plain, compacting []float64
	for k, rec := range p.ingests {
		lates = append(lates, millis(rec.late))
		if (k+1)*serveBatch%serveCompactAfter == 0 {
			compacting = append(compacting, millis(rec.latency))
		} else {
			plain = append(plain, millis(rec.latency))
		}
	}
	m := p.metrics
	b.set("graph.load_s", load.Seconds())
	b.set("core.setup_s", median(setups))
	b.set("transport.exchange_s", median(exchanges))
	b.set("core.supersteps", median(supersteps))
	b.set("core.light_supersteps", median(light))
	b.setSampling(c)
	b.set("service.queue_wait_ms_p50", median(waits))
	b.set("service.queue_wait_ms_p90", quantile(waits, 0.9))
	b.set("service.run_ms_p50", median(runs))
	b.set("service.run_ms_p90", quantile(runs, 0.9))
	b.set("dyngraph.apply_ms", ratio(m["kk_serve_ingest_apply_us_sum"], 1000*m["kk_serve_ingest_apply_us_count"]))
	b.set("dyngraph.compactions", m["kk_serve_compactions_total"])
	b.set("dyngraph.compact_ms", median(compacting)-median(plain))
	b.set("loadgen.late_ms_p90", quantile(lates, 0.9))
	b.set("trace.wall_s", p.makespan.Seconds())
	b.set("trace.unattributed_frac", median(unattributed))
	b.check(m["kk_serve_compactions_total"] == float64(len(compacting)),
		"%v compactions, want one per %d deltas (%d)", m["kk_serve_compactions_total"], serveCompactAfter, len(compacting))
	b.zero("cluster.partition_s", "cluster.load_imbalance", "core.compute_s", "core.barrier_s", "core.straggler_skew",
		"transport.connect_s", "checkpoint.span_s", "checkpoint.write_s", "checkpoint.commit_s", "checkpoint.bytes",
		"checkpoint.count", "coord.gather_s", "coord.prepare_s", "coord.overhead_s")
}
