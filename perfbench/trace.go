package main

import (
	"sync"
	"time"

	"knightking/internal/core"
	"knightking/internal/stats"
)

// spanRecorder keeps every core.SuperstepSpan of a run in memory. It
// implements core.Observer and deliberately not transport.Observer: an
// endpoint observer would make the engine wrap its endpoints and give up
// the in-process SendLocal path, so the traced run would measure a
// different data path than the untraced one.
type spanRecorder struct {
	mu    sync.Mutex
	spans []core.SuperstepSpan
}

func (r *spanRecorder) OnSuperstep(s core.SuperstepSpan) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// ObserveStepTrials and ObserveQueryBatch are counted by the engine's own
// counters already; the recorder keeps only spans.
func (r *spanRecorder) ObserveStepTrials(int64) {}
func (r *spanRecorder) ObserveQueryBatch(int64) {}

// spanTotals is a run's superstep spans summed over supersteps, each
// superstep contributing the mean over the ranks that reported it, so the
// four phases add up to the walk's wall time.
type spanTotals struct {
	compute, exchange, barrier, checkpoint time.Duration
	// skew is max/mean of the per-rank total exchange time, the engine's
	// straggler-skew definition (internal/obs).
	skew float64
}

func (t spanTotals) sum() time.Duration {
	return t.compute + t.exchange + t.barrier + t.checkpoint
}

func (r *spanRecorder) totals() spanTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	type acc struct {
		n                                      int
		compute, exchange, barrier, checkpoint int64
	}
	bySuperstep := map[int]*acc{}
	perRankExchange := map[int]int64{}
	for _, s := range r.spans {
		a := bySuperstep[s.Iteration]
		if a == nil {
			a = &acc{}
			bySuperstep[s.Iteration] = a
		}
		a.n++
		a.compute += s.ComputeNanos
		a.exchange += s.ExchangeNanos
		a.barrier += s.BarrierNanos
		a.checkpoint += s.CheckpointNanos
		perRankExchange[s.Rank] += s.ExchangeNanos
	}
	var t spanTotals
	for _, a := range bySuperstep {
		n := int64(a.n)
		t.compute += time.Duration(a.compute / n)
		t.exchange += time.Duration(a.exchange / n)
		t.barrier += time.Duration(a.barrier / n)
		t.checkpoint += time.Duration(a.checkpoint / n)
	}
	var max, sum int64
	for _, v := range perRankExchange {
		sum += v
		if v > max {
			max = v
		}
	}
	if len(perRankExchange) > 0 {
		t.skew = ratio(float64(max), float64(sum)/float64(len(perRankExchange)))
	}
	return t
}

// timingSink times one rank's checkpoint writes and commits around the
// real sink (a checkpoint.Store).
type timingSink struct {
	inner core.CheckpointSink

	mu      sync.Mutex
	write   time.Duration
	commit  time.Duration
	bytes   int64
	commits int
}

func (t *timingSink) Interval() int { return t.inner.Interval() }

func (t *timingSink) WriteSegment(iteration, rank int, blob []byte) (core.SegmentInfo, error) {
	start := time.Now()
	info, err := t.inner.WriteSegment(iteration, rank, blob)
	d := time.Since(start)
	t.mu.Lock()
	t.write += d
	t.bytes += info.Size
	t.mu.Unlock()
	return info, err
}

func (t *timingSink) Commit(iteration int, segments []core.SegmentInfo) error {
	start := time.Now()
	err := t.inner.Commit(iteration, segments)
	d := time.Since(start)
	t.mu.Lock()
	t.commit += d
	t.commits++
	t.mu.Unlock()
	return err
}

// setEngineLayers records the engine-side per-layer metrics of one traced
// job: counters summed over ranks, spans, and the reconciliation of the
// layers against the job's wall time.
func (b *bench) setEngineLayers(snap stats.Snapshot, supersteps, light int, spans spanTotals, setup, wall time.Duration) {
	b.set("core.compute_s", spans.compute.Seconds())
	b.set("core.barrier_s", spans.barrier.Seconds())
	b.set("transport.exchange_s", spans.exchange.Seconds())
	b.set("checkpoint.span_s", spans.checkpoint.Seconds())
	b.set("core.supersteps", float64(supersteps))
	b.set("core.light_supersteps", float64(light))
	b.set("core.straggler_skew", spans.skew)
	b.setSampling(snap)
	b.set("trace.wall_s", wall.Seconds())
	unattributed := ratio((wall - setup - spans.sum()).Seconds(), wall.Seconds())
	b.set("trace.unattributed_frac", unattributed)
	b.check(unattributed >= -reconcileTolerance && unattributed <= reconcileTolerance,
		"traced layers leave %.1f%% of wall time unattributed (tolerance %.0f%%)", 100*unattributed, 100*reconcileTolerance)
}

// setSampling records the sampling and transport counters of a snapshot.
func (b *bench) setSampling(snap stats.Snapshot) {
	b.set("sampling.edges_per_step", snap.EdgesPerStep())
	b.set("sampling.trials_per_step", snap.TrialsPerStep())
	b.set("sampling.pre_accept_ratio", ratio(float64(snap.PreAccepts), float64(snap.Trials)))
	b.set("sampling.appendix_hit_ratio", ratio(float64(snap.AppendixHits), float64(snap.Trials)))
	b.set("transport.msgs", float64(snap.Messages))
	b.set("transport.bytes", float64(snap.BytesSent))
	b.set("transport.bytes_per_step", ratio(float64(snap.BytesSent), float64(snap.Steps)))
}

// zero sets metrics a workload does not exercise.
func (b *bench) zero(names ...string) {
	for _, n := range names {
		b.set(n, 0)
	}
}

// sameCounts reports whether two runs of one job did the same work: the
// deterministic counters that tracing must not change.
func sameCounts(a, b stats.Snapshot) bool {
	return a.Steps == b.Steps && a.Terminations == b.Terminations &&
		a.EdgeProbEvals == b.EdgeProbEvals && a.Trials == b.Trials &&
		a.PreAccepts == b.PreAccepts && a.AppendixHits == b.AppendixHits &&
		a.Queries == b.Queries && a.Messages == b.Messages && a.BytesSent == b.BytesSent &&
		a.Checkpoints == b.Checkpoints && a.CheckpointBytes == b.CheckpointBytes
}
