package main

import (
	"sync/atomic"
	"time"
)

// The metric tables. BENCHMARK.json at the repository root mirrors them
// (a test compares the two), and every run emits exactly these names.

type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd metrics are what a user of the system sees; they come from
// the untraced pass and are gated by their bound. The bounds are as wide
// as the driver allows because of the host, not the program: on a quiet
// host ten runs spread 4-8 %, but every few minutes this class of VM
// runs everything 20-30 % slow for a minute or more (../README.md).
var endToEnd = []metricDef{
	// Closed-loop primary operations per second: requests (kv-*),
	// transactions (multiset), full-table scans (snapshot-audit).
	{"tput_ops_s", "1/s", "higher", 0.25},
	// kv-*: open-loop intended-start median at the workload's fixed
	// rate; multiset: median Run duration of one transaction;
	// snapshot-audit: median duration of one scan.
	{"p50_us", "us", "lower", 0.25},
	// Median wall time of one complete set-up (runtime, server, preload,
	// profiling, partitioning) up to the first warm-up op.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics come from the traced run; they explain a movement
// and are not gated. A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	// Generator (the benchmark itself).
	{"client.p90_us", "us", "lower", 0},
	{"client.p99_us", "us", "lower", 0},
	{"client.p999_us", "us", "lower", 0},
	{"client.max_us", "us", "lower", 0},
	{"client.samples", "count", "higher", 0},
	{"client.sched_lag_ms", "ms", "lower", 0},
	{"client.achieved_share", "share", "higher", 0},
	{"client.stream_hash", "count", "higher", 0},
	{"writer_tput_ops_s", "1/s", "higher", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"trace.accounted_share", "share", "higher", 0},
	{"trace.root_us", "us", "lower", 0},
	{"trace.spans", "count", "higher", 0},
	// internal/wire.
	{"wire.encode_req_ns", "ns", "lower", 0},
	{"wire.decode_req_ns", "ns", "lower", 0},
	{"wire.encode_resp_ns", "ns", "lower", 0},
	{"wire.decode_resp_ns", "ns", "lower", 0},
	{"wire.req_bytes", "bytes", "lower", 0},
	{"wire.resp_bytes", "bytes", "lower", 0},
	// internal/server.
	{"server.resolve_ns", "ns", "lower", 0},
	{"server.residual_us", "us", "lower", 0},
	{"server.txn_abort_share", "share", "lower", 0},
	{"server.snapshot_abort_share", "share", "lower", 0},
	{"server.bad_requests", "count", "lower", 0},
	{"server.goroutines_mid", "count", "lower", 0},
	// Go runtime.
	{"go.alloc_bytes_per_op", "bytes", "lower", 0},
	{"go.mallocs_per_op", "count", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	// stm / internal/core.
	{"core.run_ns", "ns", "lower", 0},
	{"core.commit_p50_ns", "ns", "lower", 0},
	{"core.commit_p99_ns", "ns", "lower", 0},
	{"core.attempts_per_commit", "ratio", "lower", 0},
	{"core.abort_share", "share", "lower", 0},
	{"core.snapshot_abort_share", "share", "lower", 0},
	{"core.wait_ns_per_commit", "ns", "lower", 0},
	{"core.loads_per_commit", "count", "lower", 0},
	{"core.stores_per_commit", "count", "lower", 0},
	{"pool.miss_share", "share", "lower", 0},
	{"pool.waits", "count", "lower", 0},
	{"pool.handoffs", "count", "lower", 0},
	// txds.
	{"txds.list_ns_op", "ns", "lower", 0},
	{"txds.skiplist_ns_op", "ns", "lower", 0},
	{"txds.rbtree_ns_op", "ns", "lower", 0},
	{"txds.hashset_ns_op", "ns", "lower", 0},
	{"txds.ledger_ns_op", "ns", "lower", 0},
	// internal/partition and internal/tuning.
	{"partition.count", "count", "higher", 0},
	{"partition.profile_ms", "ms", "lower", 0},
	{"partition.speedup_vs_global", "ratio", "higher", 0},
	{"tuning.decisions", "count", "lower", 0},
	{"tuning.visible_parts", "count", "higher", 0},
	// internal/mvstore.
	{"mvstore.appends_per_update", "count", "lower", 0},
	{"mvstore.snap_hit_share", "share", "higher", 0},
	{"mvstore.range_fast_share", "share", "higher", 0},
	{"mvstore.trunc_misses", "count", "lower", 0},
	{"mvstore.chain_steps_per_hit", "count", "lower", 0},
	{"mvstore.steals", "count", "lower", 0},
	// internal/epoch and internal/memory.
	{"reclaim.reclaimed_words_per_op", "words", "higher", 0},
	{"reclaim.limbo_words_end", "words", "lower", 0},
	{"reclaim.horizon_lag_end", "count", "lower", 0},
	{"heap.blocks_in_use_end", "count", "lower", 0},
	// internal/wal.
	{"wal.publish_ns", "ns", "lower", 0},
	{"wal.durable_wait_us", "us", "lower", 0},
	{"wal.group_size", "count", "higher", 0},
	{"wal.fsyncs_per_commit", "ratio", "lower", 0},
	{"wal.bytes_per_commit", "bytes", "lower", 0},
	{"wal.write_amp", "ratio", "lower", 0},
	{"wal.publish_stalls", "count", "lower", 0},
	{"wal.sync_park_share", "share", "lower", 0},
	{"wal.disk_bytes_end", "bytes", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	name string
	why  string
	run  func(*runConfig) (*result, error)
}

var workloads = []workloadDef{
	{"kv-mixed", "stmnet, wire and server do nearly all the work of a 20 us request; wal does none", runKVMixed},
	{"kv-durable", "wal fsync dominates every Sync-acked transfer; mvstore does none", runKVDurable},
	{"multiset", "the paper's Fig. 2 program in-process: core, txds, partition, tuning and reclamation only", runMultiset},
	{"snapshot-audit", "long snapshot scans beside a paced writer: mvstore and epoch do the work", runAudit},
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload produced.
type result struct {
	bad       atomic.Bool // an invariant was violated (set from any goroutine)
	attempted uint64
	failed    uint64
	metrics   map[string]float64
	// spreads holds, for end-to-end metrics, the inter-quartile spread of
	// the windows (or set-ups) behind the reported median.
	spreads map[string]float64
}

func (r *result) correct() bool { return !r.bad.Load() }

func newResult(defs []metricDef) *result {
	r := &result{metrics: map[string]float64{}, spreads: map[string]float64{}}
	for _, d := range defs {
		r.metrics[d.name] = 0
	}
	return r
}

// setMedian records the median of vals as metric name, and their spread.
func (r *result) setMedian(name string, vals []float64) {
	r.metrics[name] = median(vals)
	r.spreads[name] = spread(vals)
	logf("  %s: median %.6g, spread %.1f%%, of %.6g", name, r.metrics[name], 100*r.spreads[name], vals)
}

// measureWindows runs window once per measured window. p50_us is the
// median of every latency sample of the run (window returns them sorted,
// in ns) and tput_ops_s the median of every throughput slice of the run
// (ops/s); the spread recorded beside each is that of the windows' own
// medians.
func (r *result) measureWindows(cfg *runConfig, window func(w int, dur time.Duration) (sorted []int64, rates []float64)) {
	var lat []int64
	var rates, p50s, tputs []float64
	for w := 0; w < cfg.windows(); w++ {
		l, t := window(w, cfg.dur(1)/time.Duration(cfg.windows()))
		lat = append(lat, l...)
		rates = append(rates, t...)
		p50s = append(p50s, float64(quantile(l, 0.5))/1e3)
		tputs = append(tputs, median(t))
	}
	sortInt64(lat)
	r.setRunMedian("p50_us", float64(quantile(lat, 0.5))/1e3, p50s)
	r.setRunMedian("tput_ops_s", median(rates), tputs)
}

// setRunMedian records v, the median over the whole run, as metric name,
// with the spread of the windows' medians.
func (r *result) setRunMedian(name string, v float64, windows []float64) {
	r.metrics[name] = v
	r.spreads[name] = spread(windows)
	logf("  %s: %.6g over the run; windows spread %.1f%%: %.6g", name, v, 100*r.spreads[name], windows)
}

// setTraceSummary records what every traced pass reports: the median
// root span, how much slower the traced pass ran than the untraced one
// beside it, and the number of spans.
func (r *result) setTraceSummary(tr *tracer, traced, untraced closedResult) {
	r.metrics["trace.root_us"] = tr.medianNs(isRoot) / 1e3
	r.metrics["trace.overhead_share"] = 1 - traced.tput/untraced.tput
	r.metrics["trace.spans"] = float64(len(tr.spans))
}

// setRootOnlyTrace is setTraceSummary for a pass whose root spans (a Run
// each) have no replayed children: all of a root is its own time.
func (r *result) setRootOnlyTrace(tr *tracer, traced, untraced closedResult) {
	r.setTraceSummary(tr, traced, untraced)
	r.metrics["core.run_ns"] = tr.medianNs(isRoot)
	r.metrics["trace.accounted_share"] = 1
}

// setClientTail records the tail of the sorted latency samples the
// generator took (ns) as the client.* percentiles.
func (r *result) setClientTail(sorted []int64) {
	r.metrics["client.p90_us"] = float64(quantile(sorted, 0.90)) / 1e3
	r.metrics["client.p99_us"] = float64(quantile(sorted, 0.99)) / 1e3
	r.metrics["client.p999_us"] = float64(quantile(sorted, 0.999)) / 1e3
	r.metrics["client.max_us"] = float64(quantile(sorted, 1)) / 1e3
	r.metrics["client.samples"] = float64(len(sorted))
}

// violated records a broken invariant: the run is incorrect.
func (r *result) violated(format string, args ...any) {
	r.bad.Store(true)
	logf("INVARIANT VIOLATED: "+format, args...)
}
