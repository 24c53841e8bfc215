package stm_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/stm"
)

// TestPartitionNamesAndConfig covers the read-side inspection surface.
func TestPartitionNamesAndConfig(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	rt.RegisterSite("pn.x")
	rt.RegisterSite("pn.y")
	if _, err := rt.ManualPartition(map[string][]string{
		"left":  {"pn.x"},
		"right": {"pn.y"},
	}); err != nil {
		t.Fatal(err)
	}
	names := rt.PartitionNames()
	if len(names) != rt.NumPartitions() {
		t.Fatalf("names %d != partitions %d", len(names), rt.NumPartitions())
	}
	foundLeft := false
	for id := range names {
		cfg, err := rt.PartitionConfig(stm.PartID(id))
		if err != nil {
			t.Fatalf("PartitionConfig(%d): %v", id, err)
		}
		if cfg.String() == "" {
			t.Fatal("empty config string")
		}
		if names[id] == "left" {
			foundLeft = true
		}
	}
	if !foundLeft {
		t.Fatalf("manual group name not in %v", names)
	}
	if _, err := rt.PartitionConfig(stm.PartID(99)); err == nil {
		t.Fatal("PartitionConfig(99) succeeded")
	}
}

// TestManualPartitionErrors covers the error paths of the manual grouping
// API.
func TestManualPartitionErrors(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 14})
	if _, err := rt.ManualPartition(map[string][]string{"g": {"nosuch.site"}}); err == nil {
		t.Fatal("unknown site accepted")
	}
	rt.RegisterSite("mp.a")
	if _, err := rt.ManualPartition(map[string][]string{
		"g1": {"mp.a"},
		"g2": {"mp.a"},
	}); err == nil {
		t.Fatal("site claimed by two groups accepted")
	}
}

// TestHeapInUseBlocksGrows verifies the heap accounting surface.
func TestHeapInUseBlocksGrows(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16, BlockShift: 8})
	before := rt.HeapInUseBlocks()
	site := rt.RegisterSite("hb")
	rt.Run(func(tx *stm.Tx) error {
		for i := 0; i < 10; i++ {
			tx.Alloc(site, 200) // most of a block each
		}
		return nil
	})
	if after := rt.HeapInUseBlocks(); after <= before {
		t.Fatalf("blocks in use did not grow: %d -> %d", before, after)
	}
}

// TestRunPropagatesUserError checks user errors abort and surface.
func TestRunPropagatesUserError(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 14})
	site := rt.RegisterSite("ae")
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 1)
		return nil
	})
	sentinel := errSentinel{}
	err := rt.Run(func(tx *stm.Tx) error {
		tx.Store(a, 999)
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	rt.Run(func(tx *stm.Tx) error {
		if got := tx.Load(a); got != 1 {
			t.Fatalf("error abort leaked store: %d", got)
		}
		return nil
	})
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

// TestReconfigureWhileDetachedThreads reconfigures before any transaction
// has run (quiescence must not hang on an empty thread set).
func TestReconfigureWhileDetachedThreads(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 14})
	cfg := stm.DefaultPartConfig()
	cfg.Read = stm.VisibleReads
	if err := rt.Reconfigure(stm.GlobalPartition, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := rt.PartitionConfig(stm.GlobalPartition)
	if err != nil {
		t.Fatal(err)
	}
	if got.Read != stm.VisibleReads {
		t.Fatalf("read mode = %v", got.Read)
	}
}

// TestPlanPersistenceAcrossRuntimes saves a discovered-and-specialized
// plan from one runtime and warm-starts a second runtime with it: the
// partitioning and the tuned configuration must carry over.
func TestPlanPersistenceAcrossRuntimes(t *testing.T) {
	// First run: discover, specialize, save.
	rt1 := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	rt1.StartProfiling()
	for _, s := range []string{"pp.a.head", "pp.a.node", "pp.b.head", "pp.b.node"} {
		rt1.RegisterSite(s)
	}
	rt1.Run(func(tx *stm.Tx) error {
		sa, _ := rt1.Sites().Lookup("pp.a.head")
		san, _ := rt1.Sites().Lookup("pp.a.node")
		sb, _ := rt1.Sites().Lookup("pp.b.head")
		sbn, _ := rt1.Sites().Lookup("pp.b.node")
		a := tx.Alloc(sa, 1)
		an := tx.Alloc(san, 1)
		b := tx.Alloc(sb, 1)
		bn := tx.Alloc(sbn, 1)
		tx.StoreAddr(a, an)
		tx.StoreAddr(b, bn)
		return nil
	})
	plan, err := rt1.StopProfilingAndPartition()
	if err != nil {
		t.Fatal(err)
	}
	// "Tune" partition 1 by hand (stands in for a tuner run).
	cfg, err := rt1.PartitionConfig(stm.PartID(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Read = stm.VisibleReads
	cfg.CM = stm.CMTimestamp
	if err := rt1.Reconfigure(stm.PartID(1), cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := rt1.SavePlanFile(path, plan); err != nil {
		t.Fatal(err)
	}
	saved, _ := os.ReadFile(path)

	// Second run: same sites (fresh runtime), load the plan.
	rt2 := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	for _, s := range []string{"pp.a.head", "pp.a.node", "pp.b.head", "pp.b.node"} {
		rt2.RegisterSite(s)
	}
	loaded, err := rt2.LoadAndInstallPlanFile(path)
	if err != nil {
		t.Fatalf("load failed: %v\nsaved: %s", err, saved)
	}
	if loaded.NumPartitions() != plan.NumPartitions() {
		t.Fatalf("partitions %d != %d", loaded.NumPartitions(), plan.NumPartitions())
	}
	// The tuned config must have carried over to the matching partition.
	carried := false
	for id := 0; id < rt2.NumPartitions(); id++ {
		c, err := rt2.PartitionConfig(stm.PartID(id))
		if err != nil {
			t.Fatal(err)
		}
		if c.Read == stm.VisibleReads && c.CM == stm.CMTimestamp {
			carried = true
		}
	}
	if !carried {
		t.Fatalf("tuned configuration lost across runtimes\nsaved: %s", saved)
	}
	// And the reloaded runtime must still run transactions.
	site, _ := rt2.Sites().Lookup("pp.a.node")
	rt2.Run(func(tx *stm.Tx) error {
		a := tx.Alloc(site, 1)
		tx.Store(a, 42)
		if tx.Load(a) != 42 {
			t.Error("lost store after plan reload")
		}
		return nil
	})
}

// TestManyThreadsAttachDetachChurn churns goroutines: every round starts
// a fresh set of goroutines that run transactions through Runtime.Run and
// exit. No update may be lost, and the statistics must count every commit
// exactly once — slots are borrowed and returned, never released, so no
// counter depends on a fold at release time.
func TestManyThreadsAttachDetachChurn(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 18})
	site := rt.RegisterSite("churn")
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 0)
		return nil
	})
	const workers, rounds, perRound = 8, 20, 50
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
				}
			}()
		}
		wg.Wait()
	}
	rt.Run(func(tx *stm.Tx) error {
		if got := tx.Load(a); got != workers*rounds*perRound {
			t.Fatalf("counter = %d, want %d", got, workers*rounds*perRound)
		}
		return nil
	}, stm.ReadOnly())
	// The setup transaction, every increment and the read-only check.
	var commits uint64
	for _, ps := range rt.Stats() {
		commits += ps.Commits
	}
	if want := uint64(1 + workers*rounds*perRound + 1); commits != want {
		t.Fatalf("Stats() commits = %d, want %d", commits, want)
	}
}
