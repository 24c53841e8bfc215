package bench

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/stm"
)

func newRT(t testing.TB) *stm.Runtime {
	t.Helper()
	rt, err := stm.New(stm.Config{HeapWords: 1 << 18, BlockShift: 8})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// newCounter allocates one word holding 0.
func newCounter(rt *stm.Runtime) stm.Addr {
	site := rt.RegisterSite("h.c")
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 0)
		return nil
	})
	return a
}

func loadCounter(rt *stm.Runtime, a stm.Addr) uint64 {
	var v uint64
	rt.Run(func(tx *stm.Tx) error { v = tx.Load(a); return nil }, stm.ReadOnly())
	return v
}

// incAllStarted returns an op that increments the counter at a. Each
// worker's first call (workers are told apart by their own rng) first
// waits, up to 5 s, until all threads workers have made theirs, so every
// worker is inside the harness at once before the first increment.
func incAllStarted(rt *stm.Runtime, a stm.Addr, threads int) OpFunc {
	var seen sync.Map
	var arrived atomic.Int32
	all := make(chan struct{})
	return func(rng *workload.Rng) {
		if _, again := seen.LoadOrStore(rng, true); !again {
			if arrived.Add(1) == int32(threads) {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(5 * time.Second):
			}
		}
		rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	}
}

// TestRunMeasuresWindow also runs more workers than stm.MaxThreads, all
// started at once: they share the slot pool and the run completes.
func TestRunMeasuresWindow(t *testing.T) {
	for _, threads := range []int{2, stm.MaxThreads + 32} {
		rt := newRT(t)
		a := newCounter(rt)
		res := Run(rt, RunConfig{
			Threads: threads,
			Warmup:  10 * time.Millisecond,
			Measure: 60 * time.Millisecond,
			Seed:    1,
		}, incAllStarted(rt, a, threads))
		if res.Ops == 0 || res.Throughput <= 0 {
			t.Fatalf("%d threads: no throughput measured: %+v", threads, res)
		}
		// The counter also counts the warm-up and the ops that finished
		// after the window closed.
		if got := loadCounter(rt, a); got < res.Ops {
			t.Fatalf("%d threads: counter %d < measured ops %d", threads, got, res.Ops)
		}
		if res.Commits == 0 {
			t.Fatal("no commits in per-partition delta")
		}
		if len(res.PerPart) != 1 {
			t.Fatalf("PerPart = %d entries", len(res.PerPart))
		}
		if res.Elapsed < 50*time.Millisecond {
			t.Fatalf("window too short: %v", res.Elapsed)
		}
		if res.String() == "" {
			t.Fatal("empty result string")
		}
	}
}

func TestRunSampleLatency(t *testing.T) {
	rt := newRT(t)
	site := rt.RegisterSite("h.l")
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error { a = tx.Alloc(site, 1); return nil })
	res := Run(rt, RunConfig{
		Threads:       1,
		Measure:       50 * time.Millisecond,
		SampleLatency: true,
	}, func(rng *workload.Rng) {
		rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	})
	if res.Latency.Count() == 0 {
		t.Fatal("no latency samples recorded")
	}
	if res.Latency.Quantile(0.5) == 0 {
		t.Fatal("zero median latency")
	}
}

// TestRunOpsExactCount also runs more workers than stm.MaxThreads, all
// started at once: every one of their operations lands exactly once.
func TestRunOpsExactCount(t *testing.T) {
	for _, threads := range []int{3, stm.MaxThreads + 32} {
		rt := newRT(t)
		a := newCounter(rt)
		res := RunOps(rt, threads, 500, 2, incAllStarted(rt, a, threads))
		if want := uint64(threads * 500); res.Ops != want {
			t.Fatalf("%d threads: Ops = %d, want %d", threads, res.Ops, want)
		}
		if got := loadCounter(rt, a); got != res.Ops {
			t.Fatalf("%d threads: counter = %d, Ops = %d", threads, got, res.Ops)
		}
	}
}

func TestRunDefaultsThreads(t *testing.T) {
	rt := newRT(t)
	res := Run(rt, RunConfig{Measure: 20 * time.Millisecond}, func(rng *workload.Rng) {
		rt.Run(func(tx *stm.Tx) error { return nil })
	})
	if res.Ops == 0 {
		t.Fatal("zero ops with defaulted thread count")
	}
}
