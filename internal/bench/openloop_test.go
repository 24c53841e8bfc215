package bench

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/stm"
)

func newTestRuntime(t testing.TB) (*stm.Runtime, stm.Addr) {
	t.Helper()
	rt, err := stm.New(stm.Config{HeapWords: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(stm.SiteID(0), 1)
		tx.Store(a, 0)
		return nil
	})
	return rt, a
}

// TestOpenLoopKeepsSchedule: at a rate far below capacity the generator
// must serve ~every arrival on time — achieved rate near offered, no
// terminal lag, and one latency sample per measured arrival.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	rt, a := newTestRuntime(t)
	cfg := OpenLoopConfig{
		Threads: 2,
		Rate:    5000,
		Warmup:  20 * time.Millisecond,
		Measure: 200 * time.Millisecond,
		Seed:    1,
	}
	res := RunOpenLoop(rt, cfg, func(rng *workload.Rng, i uint64) {
		rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	})
	if res.Ops == 0 {
		t.Fatal("no measured ops")
	}
	if res.Latency.Count() != res.Ops || res.Service.Count() != res.Ops {
		t.Fatalf("latency samples %d, service %d, ops %d — every measured op must be sampled",
			res.Latency.Count(), res.Service.Count(), res.Ops)
	}
	// The schedule has Measure/interval measured arrivals; allow the
	// boundary arrival either way.
	want := uint64(float64(cfg.Measure.Seconds()) * cfg.Rate)
	if res.Ops < want-2 || res.Ops > want+2 {
		t.Fatalf("measured ops = %d, want ~%d (open loop must serve every arrival)", res.Ops, want)
	}
	if res.Lag > 50*time.Millisecond {
		t.Fatalf("terminal lag %v at 10%% load — generator cannot keep its own schedule", res.Lag)
	}
	// Client-view latency includes queueing and pacing jitter, so it
	// dominates pure service time.
	if res.Latency.Quantile(0.5) < res.Service.Quantile(0.5) {
		t.Fatalf("median latency %d < median service %d", res.Latency.Quantile(0.5), res.Service.Quantile(0.5))
	}
}

// TestCoordinatedOmission is the methodological point of the open loop,
// asserted: the same workload with one injected 10ms server stall is
// measured both ways. The closed-loop harness — whose arrival stream
// pauses with the stalled worker — sees the stall only as a single slow
// sample (its max), leaving p99.9 at microseconds: the stall's impact on
// every request that would have arrived meanwhile is omitted. The open
// loop keeps those arrivals on schedule, so the backlog the stall
// created lands in the tail and p99.9 rises to the stall's scale.
func TestCoordinatedOmission(t *testing.T) {
	const (
		stall   = 10 * time.Millisecond
		warmup  = 20 * time.Millisecond
		measure = 200 * time.Millisecond
	)

	// Closed loop: one worker, next op issued when the previous returns.
	{
		rt, a := newTestRuntime(t)
		var armed atomic.Bool
		timer := time.AfterFunc(warmup+measure/2, func() { armed.Store(true) })
		defer timer.Stop()
		res := Run(rt, RunConfig{
			Threads:       1,
			Warmup:        warmup,
			Measure:       measure,
			Seed:          3,
			SampleLatency: true,
		}, func(rng *workload.Rng) {
			if armed.CompareAndSwap(true, false) {
				time.Sleep(stall)
			}
			rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		})
		snap := res.Latency.Snapshot()
		if snap.Count() < 10_000 {
			t.Fatalf("closed loop made only %d samples; too few for the p99.9 argument", snap.Count())
		}
		// The harness DID experience the stall (it is the sample max)...
		if max := snap.Max(); time.Duration(max) < stall {
			t.Fatalf("closed-loop max %v < injected stall %v — stall not hit during the measured window", time.Duration(max), stall)
		}
		// ...yet the tail hides it: one sample among tens of thousands.
		if p999 := time.Duration(snap.Quantile(0.999)); p999 >= stall/2 {
			t.Fatalf("closed-loop p99.9 %v unexpectedly shows the stall (machine too noisy for this test?)", p999)
		}
	}

	// Open loop: same stall injected on one arrival index; the fixed
	// schedule keeps generating during the stall, so the queue it builds
	// is measured.
	{
		rt, a := newTestRuntime(t)
		const rate = 20000.0
		warmArrivals := uint64(warmup.Seconds() * rate)
		measArrivals := uint64(measure.Seconds() * rate)
		stallIndex := warmArrivals + measArrivals/2
		res := RunOpenLoop(rt, OpenLoopConfig{
			Threads: 1,
			Rate:    rate,
			Warmup:  warmup,
			Measure: measure,
			Seed:    3,
		}, func(rng *workload.Rng, i uint64) {
			if i == stallIndex {
				time.Sleep(stall)
			}
			rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		})
		// ~rate*stall arrivals queued behind the stall: 200 of ~4000
		// measured, i.e. ~5% of samples — far past the 0.1% mark.
		if p999 := time.Duration(res.Latency.Quantile(0.999)); p999 < stall/2 {
			t.Fatalf("open-loop p99.9 %v does not show the %v stall (queued arrivals lost?)", p999, stall)
		}
		// The service view of the very same run still hides it, which is
		// exactly the closed-loop blind spot.
		if svc999 := time.Duration(res.Service.Quantile(0.999)); svc999 >= stall/2 {
			t.Fatalf("open-loop service-view p99.9 %v shows the stall; expected it hidden", svc999)
		}
	}
}
