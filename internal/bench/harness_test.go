package bench

import (
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

func TestRunMeasuresWindow(t *testing.T) {
	rt := newRT(t)
	site := rt.RegisterSite("h.c")
	setup := rt.MustAttach()
	var a stm.Addr
	setup.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 0)
		return nil
	})
	rt.Detach(setup)
	res := Run(rt, RunConfig{
		Threads: 2,
		Warmup:  10 * time.Millisecond,
		Measure: 60 * time.Millisecond,
		Seed:    1,
	}, func(th *stm.Thread, rng *workload.Rng) {
		th.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	})
	if res.Ops == 0 || res.Throughput <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
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

func TestRunSampleLatency(t *testing.T) {
	rt := newRT(t)
	site := rt.RegisterSite("h.l")
	setup := rt.MustAttach()
	var a stm.Addr
	setup.Run(func(tx *stm.Tx) error { a = tx.Alloc(site, 1); return nil })
	rt.Detach(setup)
	res := Run(rt, RunConfig{
		Threads:       1,
		Measure:       50 * time.Millisecond,
		SampleLatency: true,
	}, func(th *stm.Thread, rng *workload.Rng) {
		th.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	})
	if res.Latency.Count() == 0 {
		t.Fatal("no latency samples recorded")
	}
	if res.Latency.Quantile(0.5) == 0 {
		t.Fatal("zero median latency")
	}
}

func TestRunOpsExactCount(t *testing.T) {
	rt := newRT(t)
	site := rt.RegisterSite("h.o")
	setup := rt.MustAttach()
	var a stm.Addr
	setup.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 0)
		return nil
	})
	rt.Detach(setup)
	res := RunOps(rt, 3, 500, 2, func(th *stm.Thread, rng *workload.Rng) {
		th.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	})
	if res.Ops != 1500 {
		t.Fatalf("Ops = %d", res.Ops)
	}
	th := rt.MustAttach()
	defer rt.Detach(th)
	th.Run(func(tx *stm.Tx) error {
		if got := tx.Load(a); got != 1500 {
			t.Fatalf("counter = %d", got)
		}
		return nil
	})
}

func TestRunDefaultsThreads(t *testing.T) {
	rt := newRT(t)
	res := Run(rt, RunConfig{Measure: 20 * time.Millisecond}, func(th *stm.Thread, rng *workload.Rng) {
		th.Run(func(tx *stm.Tx) error { return nil })
	})
	if res.Ops == 0 {
		t.Fatal("zero ops with defaulted thread count")
	}
}
