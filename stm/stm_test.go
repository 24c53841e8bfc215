package stm_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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

func TestNewValidation(t *testing.T) {
	if _, err := stm.New(stm.Config{HeapWords: 10, BlockShift: 8}); err == nil {
		t.Fatal("tiny heap accepted")
	}
	if rt, err := stm.New(stm.Config{}); err != nil || rt == nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad config")
		}
	}()
	stm.MustNew(stm.Config{HeapWords: 10, BlockShift: 8})
}

func TestBasicTransactions(t *testing.T) {
	rt := newRT(t)
	site := rt.RegisterSite("t.basic")
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 2)
		tx.Store(a, 7)
		tx.Store(a+1, 8)
		return nil
	})
	rt.Run(func(tx *stm.Tx) error {
		if tx.Load(a) != 7 || tx.Load(a+1) != 8 {
			t.Error("values lost")
		}
		return nil
	})
	if err := rt.Run(func(tx *stm.Tx) error {
		tx.Store(a, 99)
		return fmt.Errorf("user abort")
	}); err == nil {
		t.Fatal("Run swallowed the error")
	}
	rt.Run(func(tx *stm.Tx) error {
		if got := tx.Load(a); got != 7 {
			t.Errorf("aborted write visible: %d", got)
		}
		return nil
	})
}

func TestManualPartitionAndReconfigure(t *testing.T) {
	rt := newRT(t)
	rt.RegisterSite("mp.a")
	rt.RegisterSite("mp.b")
	plan, err := rt.ManualPartition(map[string][]string{
		"pa": {"mp.a"},
		"pb": {"mp.b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumPartitions() != 3 || rt.NumPartitions() != 3 {
		t.Fatalf("partitions: plan %d, runtime %d", plan.NumPartitions(), rt.NumPartitions())
	}
	names := rt.PartitionNames()
	if names[0] != "global" {
		t.Fatalf("names = %v", names)
	}

	cfg, err := rt.PartitionConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Read = stm.VisibleReads
	if err := rt.Reconfigure(1, cfg); err != nil {
		t.Fatal(err)
	}
	got, _ := rt.PartitionConfig(1)
	if got.Read != stm.VisibleReads {
		t.Fatal("reconfigure did not stick")
	}
	if _, err := rt.PartitionConfig(99); err == nil {
		t.Fatal("config of unknown partition")
	}
	if _, err := rt.ManualPartition(map[string][]string{"x": {"nope"}}); err == nil {
		t.Fatal("unknown site accepted")
	}

	// Allocations route to the right partitions.
	sa, _ := rt.Sites().Lookup("mp.a")
	var addr stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		addr = tx.Alloc(sa, 1)
		tx.Store(addr, 1)
		return nil
	})
	for id, st := range rt.Stats() {
		want := uint64(0)
		if id == 1 {
			want = 1
		}
		if st.Stores != want {
			t.Fatalf("partition %d counted %d stores, want %d", id, st.Stores, want)
		}
	}
}

func TestProfilingPipeline(t *testing.T) {
	rt := newRT(t)
	rt.StartProfiling()
	sHead := rt.RegisterSite("pp.head")
	sNode := rt.RegisterSite("pp.node")
	rt.Run(func(tx *stm.Tx) error {
		h := tx.Alloc(sHead, 1)
		n := tx.Alloc(sNode, 2)
		tx.StoreAddr(h, n)
		return nil
	})
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumPartitions() != 2 {
		t.Fatalf("NumPartitions = %d\n%s", plan.NumPartitions(), plan.Describe(rt.Sites()))
	}
	if !strings.Contains(plan.Describe(rt.Sites()), "pp") {
		t.Fatal("describe lacks group name")
	}
}

func TestTunerLifecycle(t *testing.T) {
	rt := newRT(t)
	if rt.TunerTrace() != nil {
		t.Fatal("trace without tuner")
	}
	if tr := rt.StopTuner(); tr != nil {
		t.Fatal("StopTuner without StartTuner returned trace")
	}
	cfg := stm.DefaultTunerConfig()
	cfg.Interval = time.Millisecond
	rt.StartTuner(cfg)
	rt.StartTuner(cfg) // idempotent
	time.Sleep(5 * time.Millisecond)
	_ = rt.TunerTrace()
	_ = rt.StopTuner()
}

func TestStatsSurface(t *testing.T) {
	rt := newRT(t)
	site := rt.RegisterSite("ss.x")
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 0)
		return nil
	})
	for i := 0; i < 5; i++ {
		rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	}
	all := rt.Stats()
	if len(all) != 1 {
		t.Fatalf("Stats len = %d", len(all))
	}
	if all[0].Commits != 6 {
		t.Fatalf("commits: %d, want 6", all[0].Commits)
	}
	if rt.HeapInUseBlocks() == 0 {
		t.Fatal("no heap blocks in use")
	}
}

func TestConcurrentFacadeUse(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 18, BlockShift: 8, YieldEveryOps: 8})
	site := rt.RegisterSite("cf.slots")
	var base stm.Addr
	const slots = 16
	rt.Run(func(tx *stm.Tx) error {
		base = tx.Alloc(site, slots)
		for i := 0; i < slots; i++ {
			tx.Store(base+stm.Addr(i), 100)
		}
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				from := stm.Addr(seed+uint64(i)) % slots
				to := stm.Addr(seed+uint64(i)*7+3) % slots
				rt.Run(func(tx *stm.Tx) error {
					v := tx.Load(base + from)
					if v == 0 {
						return nil
					}
					tx.Store(base+from, v-1)
					tx.Store(base+to, tx.Load(base+to)+1)
					return nil
				})
			}
		}(uint64(w))
	}
	wg.Wait()
	rt.Run(func(tx *stm.Tx) error {
		var sum uint64
		for i := 0; i < slots; i++ {
			sum += tx.Load(base + stm.Addr(i))
		}
		if sum != slots*100 {
			t.Errorf("sum = %d", sum)
		}
		return nil
	}, stm.ReadOnly())
}

func TestDefaultConfigOverride(t *testing.T) {
	cfg := stm.DefaultPartConfig()
	cfg.Read = stm.VisibleReads
	cfg.LockBits = 6
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 18, BlockShift: 8, Default: &cfg})
	got, err := rt.PartitionConfig(stm.GlobalPartition)
	if err != nil {
		t.Fatal(err)
	}
	if got.Read != stm.VisibleReads || got.LockBits != 6 {
		t.Fatalf("default config not applied: %v", got)
	}
}

// TestSnapshotModeFacade exercises the snapshot surface end to end:
// Config.SnapshotHistory attaches stores to every partition,
// Run with Snapshot reads a pinned snapshot through writer traffic,
// and SnapshotHistory/stats report the reconstructions.
func TestSnapshotModeFacade(t *testing.T) {
	rt, err := stm.New(stm.Config{HeapWords: 1 << 18, BlockShift: 8, SnapshotHistory: 256})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := rt.PartitionConfig(stm.GlobalPartition)
	if err != nil || cfg.HistCap != 256 {
		t.Fatalf("HistCap = %d (%v), want 256", cfg.HistCap, err)
	}

	site := rt.RegisterSite("snap.cells")
	const cells = 8
	var base stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		base = tx.Alloc(site, cells)
		for i := 0; i < cells; i++ {
			tx.Store(base+stm.Addr(i), 5)
		}
		return nil
	})

	rt.Run(func(tx *stm.Tx) error {
		if got := tx.Load(base); got != 5 {
			t.Errorf("pin read = %d, want 5", got)
		}
		rt.Run(func(wtx *stm.Tx) error {
			for i := 0; i < cells; i++ {
				wtx.Store(base+stm.Addr(i), 6)
			}
			return nil
		})
		for i := 1; i < cells; i++ {
			if got := tx.Load(base + stm.Addr(i)); got != 5 {
				t.Errorf("cell %d = %d at pinned snapshot, want 5", i, got)
			}
		}
		return nil
	}, stm.Snapshot())

	hist := rt.SnapshotHistory(stm.GlobalPartition)
	if hist.Cap != 256 || hist.Appends == 0 {
		t.Fatalf("history stats = %+v", hist)
	}
	st := rt.Stats()[stm.GlobalPartition]
	if st.SnapHits == 0 {
		t.Fatalf("no snapshot hits in stats: %+v", st)
	}
	if got := rt.SnapshotHistory(stm.PartID(99)); got.Cap != 0 {
		t.Fatalf("unknown partition returned history %+v", got)
	}
}
