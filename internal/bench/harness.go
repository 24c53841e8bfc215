// Package bench is the experiment harness: it drives worker threads over
// a runtime for timed windows, snapshots per-partition statistics, and
// assembles the tables and figures of the paper's evaluation (see
// internal/experiments for the experiment definitions).
//
// Two load models are provided. Run is closed-loop: each worker issues
// its next operation the moment the previous one returns, which measures
// service time and peak throughput but lets a stalled system pause its
// own load (coordinated omission). RunOpenLoop is open-loop: operations
// arrive on a fixed schedule and latency counts from each arrival's due
// time, so queueing delay — the part of client-visible latency a closed
// loop cannot observe — lands in the measured tail. Use Run for
// capacity questions, RunOpenLoop for latency questions. Both record
// every measured operation into per-worker histogram shards
// (internal/stats) merged after the run.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
)

// RunConfig configures one measured run.
type RunConfig struct {
	Threads int
	Warmup  time.Duration
	Measure time.Duration
	Seed    uint64
	// SampleLatency, when true, records every measured op's latency into
	// the result histogram. Workers record into per-worker shards (one
	// uncontended counter increment per op) merged after the run, so
	// enabling it neither serializes workers nor biases the sample — the
	// old 1-in-64 subsampling systematically missed rare slow ops, which
	// is exactly the tail the histogram exists to expose.
	SampleLatency bool
}

// Result is one run's measurements.
type Result struct {
	Ops        uint64
	Elapsed    time.Duration
	Throughput float64 // operations per second
	Commits    uint64
	Aborts     uint64
	AbortRate  float64
	PerPart    []core.PartStats // per-partition deltas over the window
	Latency    *stats.Histogram
}

// String summarizes the result on one line.
func (r Result) String() string {
	return fmt.Sprintf("%.0f ops/s (ops=%d commits=%d aborts=%d rate=%.3f)",
		r.Throughput, r.Ops, r.Commits, r.Aborts, r.AbortRate)
}

// OpFunc is one benchmark operation: it may run any number of
// transactions (Runtime.Run).
type OpFunc func(rng *workload.Rng)

// Run drives cfg.Threads workers executing op in a loop: warm-up window,
// then a measured window, and returns aggregate and per-partition deltas.
func Run(rt *stm.Runtime, cfg RunConfig, op OpFunc) Result {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	var (
		stop    atomic.Bool
		measure atomic.Bool
		ops     atomic.Uint64
		wg      sync.WaitGroup
		hist    = &stats.Histogram{}
		shards  = make([]stats.Histogram, cfg.Threads)
	)
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(seed uint64, shard *stats.Histogram) {
			defer wg.Done()
			rng := workload.NewRng(seed)
			local := uint64(0)
			for !stop.Load() {
				if cfg.SampleLatency && measure.Load() {
					t0 := time.Now()
					op(rng)
					shard.RecordSince(t0)
				} else {
					op(rng)
				}
				if measure.Load() {
					local++
				}
			}
			ops.Add(local)
		}(cfg.Seed*1000+uint64(w)+1, &shards[w])
	}

	time.Sleep(cfg.Warmup)
	before := rt.Stats()
	measure.Store(true)
	t0 := time.Now()
	time.Sleep(cfg.Measure)
	measure.Store(false)
	elapsed := time.Since(t0)
	after := rt.Stats()
	stop.Store(true)
	wg.Wait()
	for i := range shards {
		hist.Merge(&shards[i])
	}

	res := Result{
		Ops:     ops.Load(),
		Elapsed: elapsed,
		Latency: hist,
	}
	res.Throughput = float64(res.Ops) / elapsed.Seconds()
	res.PerPart, res.Commits, res.Aborts, res.AbortRate = window(before, after)
	return res
}

// RunOps drives cfg.Threads workers until each has executed opsPerThread
// operations (no timed window); used where exact operation counts matter
// more than duration, e.g. the phase experiments.
func RunOps(rt *stm.Runtime, threads int, opsPerThread int, seed uint64, op OpFunc) Result {
	var wg sync.WaitGroup
	before := rt.Stats()
	t0 := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(s uint64) {
			defer wg.Done()
			rng := workload.NewRng(s)
			for i := 0; i < opsPerThread; i++ {
				op(rng)
			}
		}(seed*1000 + uint64(w) + 1)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	after := rt.Stats()
	res := Result{
		Ops:     uint64(threads * opsPerThread),
		Elapsed: elapsed,
	}
	res.Throughput = float64(res.Ops) / elapsed.Seconds()
	res.PerPart, res.Commits, res.Aborts, res.AbortRate = window(before, after)
	return res
}

// window diffs two rt.Stats() snapshots into per-partition deltas, their
// commit and abort totals, and the abort rate aborts/(commits+aborts).
func window(before, after []core.PartStats) (perPart []core.PartStats, commits, aborts uint64, abortRate float64) {
	for i := range min(len(before), len(after)) {
		d := after[i].Sub(before[i])
		perPart = append(perPart, d)
		commits += d.Commits
		aborts += d.TotalAborts()
	}
	if commits+aborts > 0 {
		abortRate = float64(aborts) / float64(commits+aborts)
	}
	return perPart, commits, aborts, abortRate
}
