package stm_test

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/workload"
	"repro/stm"
)

// TestLatencyStatsOpenLoopContention is the end-to-end acceptance check
// for the latency plumbing: an open-loop run under saturating write
// contention (every transaction increments one shared counter, offered
// rate far above capacity) must surface a full p50/p99/p999 picture
// through every layer — Runtime.LatencyStats, per-partition
// PartStats.Latency, and one sample per commit the partition counters
// report.
func TestLatencyStatsOpenLoopContention(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16, LatencyStats: true})
	var a stm.Addr
	if err := rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(stm.SiteID(0), 1)
		tx.Store(a, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res := bench.RunOpenLoop(rt, bench.OpenLoopConfig{
		Threads: 4,
		Rate:    2_000_000, // far beyond one contended counter's capacity
		Warmup:  10 * time.Millisecond,
		Measure: 100 * time.Millisecond,
		Seed:    5,
	}, func(rng *workload.Rng, i uint64) {
		rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	})
	if res.Ops == 0 {
		t.Fatal("no measured ops")
	}

	// Layer 1: the runtime-wide histogram.
	lat := rt.LatencyStats()
	if lat.Count() == 0 {
		t.Fatal("Runtime.LatencyStats empty with tracking on")
	}
	p50, p99, p999 := lat.Quantile(0.50), lat.Quantile(0.99), lat.Quantile(0.999)
	if p50 == 0 || p50 > p99 || p99 > p999 || p999 > lat.Max() {
		t.Fatalf("quantiles not ordered: p50=%d p99=%d p999=%d max=%d", p50, p99, p999, lat.Max())
	}

	// Layer 2: the per-partition breakdown the runtime histogram merges.
	var perPart uint64
	for _, ps := range rt.Stats() {
		perPart += ps.Latency.Count()
	}
	if perPart != lat.Count() {
		t.Fatalf("per-partition latency samples %d != runtime-wide %d", perPart, lat.Count())
	}

	// Layer 3: every committed attempt — the setup transaction included,
	// Config.LatencyStats having turned tracking on from construction —
	// is exactly one sample.
	var commits uint64
	for _, ps := range rt.Stats() {
		commits += ps.Commits
	}
	if lat.Count() != commits {
		t.Fatalf("latency samples %d != commits %d", lat.Count(), commits)
	}
}

// TestLatencyTrackingToggle: recording must follow the live switch — and
// stay off by default, because the default hot path pays for none of
// this.
func TestLatencyTrackingToggle(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	var a stm.Addr
	inc := func(tx *stm.Tx) error {
		if a == stm.Nil {
			a = tx.Alloc(stm.SiteID(0), 1)
		}
		tx.Store(a, tx.Load(a)+1)
		return nil
	}
	for i := 0; i < 100; i++ {
		if err := rt.Run(inc); err != nil {
			t.Fatal(err)
		}
	}
	if n := rt.LatencyStats().Count(); n != 0 {
		t.Fatalf("histogram has %d samples with tracking off", n)
	}
	rt.SetLatencyTracking(true)
	for i := 0; i < 100; i++ {
		if err := rt.Run(inc); err != nil {
			t.Fatal(err)
		}
	}
	on := rt.LatencyStats().Count()
	if on == 0 {
		t.Fatal("histogram empty after tracking enabled")
	}
	rt.SetLatencyTracking(false)
	for i := 0; i < 100; i++ {
		if err := rt.Run(inc); err != nil {
			t.Fatal(err)
		}
	}
	if after := rt.LatencyStats().Count(); after != on {
		t.Fatalf("histogram grew from %d to %d with tracking off", on, after)
	}
}
