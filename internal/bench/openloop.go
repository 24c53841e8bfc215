package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
)

// Open-loop load generation. The closed-loop harness (Run) issues the
// next operation the moment the previous one returns, so a slow response
// slows the request stream itself: a 10ms server stall suppresses ~10ms
// of arrivals, and the latency sample silently omits the very ops that
// would have observed the stall. That is coordinated omission, and it
// makes closed-loop tail percentiles an artifact of the harness rather
// than a property of the system.
//
// RunOpenLoop instead fixes the arrival schedule in advance: arrival i
// is DUE at start + i/rate regardless of how the system is doing, and
// each op's latency is measured from its intended start, not from when a
// worker got around to issuing it. When the system stalls, arrivals
// queue; every queued op's measurement accrues the full queueing delay,
// so stalls appear in the tail with their true weight — the measurement
// is coordinated-omission-safe by construction, not by correction.
//
// The schedule is virtual: workers claim arrival indexes from one shared
// atomic counter (no central dispatcher goroutine, no channel), pace
// themselves to each claim's due time, and run ops back-to-back when the
// schedule is behind. Each worker records into its own histogram shard,
// merged after the run.
//
// The schedule-drain core is RunOpenLoopFunc, which knows nothing about
// the STM: its ops are plain closures, so the same harness (and the same
// coordinated-omission discipline) drives in-process transactions and
// remote ones over network connections (cmd/netbench). RunOpenLoop is
// the *stm.Runtime wrapper, adding partition-stats windowing.

// IndexedOpFunc is one open-loop operation; i is the op's global arrival
// index (0-based, dense), which deterministic fault-injection harnesses
// can key on (e.g. "stall on arrival 5000").
type IndexedOpFunc func(rng *workload.Rng, i uint64)

// WorkerSetup prepares one open-loop worker. It runs on the worker's own
// goroutine before its first arrival and returns the worker's op plus a
// teardown (either may close over per-worker state, such as a network
// connection). teardown may be nil.
type WorkerSetup func(worker int) (op IndexedOpFunc, teardown func())

// OpenLoopConfig configures one open-loop run.
type OpenLoopConfig struct {
	// Threads is the worker-pool size draining the arrival schedule. It
	// bounds in-flight concurrency, not the arrival rate: when all
	// workers are busy, due arrivals queue (their latency keeps
	// accruing) until a worker frees.
	Threads int
	// Rate is the target arrival rate in ops/second.
	Rate float64
	// Warmup arrivals run on schedule but are not measured.
	Warmup  time.Duration
	Measure time.Duration
	Seed    uint64
	// OnMeasureStart, when set, fires once at the warmup/measure
	// boundary, concurrent with the workers (RunOpenLoop uses it to
	// snapshot partition stats without stopping the run). It is
	// guaranteed to have returned before RunOpenLoopFunc does.
	OnMeasureStart func()
}

// OpenLoopResult is one open-loop run's measurements.
type OpenLoopResult struct {
	// Ops counts measured (post-warmup) operations.
	Ops     uint64
	Elapsed time.Duration
	// Offered is the configured arrival rate; Achieved the measured
	// completion rate. Achieved < Offered means the system could not
	// keep up and the run finished late (see Lag).
	Offered  float64
	Achieved float64
	// Lag is how far past the schedule's end the last op finished —
	// the run's terminal backlog, expressed in time. ~0 when the system
	// keeps up with the offered rate.
	Lag time.Duration
	// Latency measures each op from its INTENDED start (due time) and
	// so includes queueing delay: the client-visible, coordinated-
	// omission-safe distribution.
	Latency stats.HistSnapshot
	// Service measures each op from its actual issue time — what a
	// closed-loop harness would have reported. The gap between
	// Service and Latency tails is the queueing the closed loop hides.
	Service   stats.HistSnapshot
	Commits   uint64
	Aborts    uint64
	AbortRate float64
	// PerPart holds per-partition deltas over the measured window
	// (including any late drain of the backlog). Populated by
	// RunOpenLoop only; RunOpenLoopFunc has no runtime to sample.
	PerPart []core.PartStats
}

// String summarizes the result on one line.
func (r OpenLoopResult) String() string {
	return fmt.Sprintf("offered %.0f/s achieved %.0f/s lag=%v latency[%s] service[%s]",
		r.Offered, r.Achieved, r.Lag, r.Latency.Summary(), r.Service.Summary())
}

// RunOpenLoopFunc drives an open-loop run: a fixed schedule of
// (Warmup+Measure)*Rate arrivals at 1/Rate spacing, drained by
// cfg.Threads workers, with per-op latency measured from each arrival's
// due time. The run ends when every scheduled arrival has been served —
// possibly after the nominal window, if the system fell behind.
func RunOpenLoopFunc(cfg OpenLoopConfig, setup WorkerSetup) OpenLoopResult {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1000
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = 1
	}
	total := uint64((cfg.Warmup + cfg.Measure) / interval)
	if total == 0 {
		total = 1
	}

	var (
		next      atomic.Uint64
		served    atomic.Uint64
		wg        sync.WaitGroup
		latShards = make([]stats.Histogram, cfg.Threads)
		svcShards = make([]stats.Histogram, cfg.Threads)
	)
	start := time.Now()
	warmEnd := start.Add(cfg.Warmup)
	deadline := warmEnd.Add(cfg.Measure)

	boundary := make(chan struct{})
	go func() {
		defer close(boundary)
		time.Sleep(time.Until(warmEnd))
		if cfg.OnMeasureStart != nil {
			cfg.OnMeasureStart()
		}
	}()

	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int, seed uint64) {
			defer wg.Done()
			op, teardown := setup(w)
			if teardown != nil {
				defer teardown()
			}
			rng := workload.NewRng(seed)
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				pace(due)
				t0 := time.Now()
				op(rng, i)
				end := time.Now()
				if !due.Before(warmEnd) {
					latShards[w].Record(uint64(end.Sub(due)))
					svcShards[w].Record(uint64(end.Sub(t0)))
					served.Add(1)
				}
			}
		}(w, cfg.Seed*1000+uint64(w)+1)
	}
	wg.Wait()
	finish := time.Now()
	<-boundary

	var lat, svc stats.Histogram
	for i := range latShards {
		lat.Merge(&latShards[i])
		svc.Merge(&svcShards[i])
	}
	res := OpenLoopResult{
		Ops:     served.Load(),
		Elapsed: finish.Sub(warmEnd),
		Offered: cfg.Rate,
		Latency: lat.Snapshot(),
		Service: svc.Snapshot(),
	}
	if lag := finish.Sub(deadline); lag > 0 {
		res.Lag = lag
	}
	if res.Elapsed > 0 {
		res.Achieved = float64(res.Ops) / res.Elapsed.Seconds()
	}
	return res
}

// RunOpenLoop is RunOpenLoopFunc over an *stm.Runtime: partition stats
// are windowed to the measured interval (snapshot at the warmup/measure
// boundary without stopping the workers, again after the drain).
func RunOpenLoop(rt *stm.Runtime, cfg OpenLoopConfig, op IndexedOpFunc) OpenLoopResult {
	var before []core.PartStats
	userBoundary := cfg.OnMeasureStart
	cfg.OnMeasureStart = func() {
		before = rt.Stats()
		if userBoundary != nil {
			userBoundary()
		}
	}
	res := RunOpenLoopFunc(cfg, func(int) (IndexedOpFunc, func()) { return op, nil })
	res.PerPart, res.Commits, res.Aborts, res.AbortRate = window(before, rt.Stats())
	return res
}

// pace blocks until t is due, then returns; it returns immediately when
// t has already passed, so a backlogged schedule drains at full speed.
// Coarse waits sleep (leaving ~100µs of slack for the scheduler's wakeup
// granularity), the slack yields, and the last few microseconds spin, so
// arrival jitter stays well under typical op latency without burning a
// core during idle stretches of slow schedules.
func pace(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 200*time.Microsecond:
			time.Sleep(d - 100*time.Microsecond)
		case d > 20*time.Microsecond:
			runtime.Gosched()
		}
	}
}
