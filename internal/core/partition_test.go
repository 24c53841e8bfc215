package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memory"
)

func TestInstallPlanRoutesSitesToPartitions(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	sites := e.Arena().Sites()
	sA := sites.Register("a")
	sB := sites.Register("b")

	sitePart := make([]PartID, sites.Count())
	sitePart[sA] = 1
	sitePart[sB] = 2
	cfgA := DefaultPartConfig()
	cfgA.Read = VisibleReads
	if err := e.InstallPlan(sitePart,
		[]string{"global", "partA", "partB"},
		[]PartConfig{DefaultPartConfig(), cfgA, DefaultPartConfig()}); err != nil {
		t.Fatal(err)
	}

	th := e.BorrowThread()
	var aA, aB, aD memory.Addr
	th.Run(func(tx *Tx) error {
		aA = tx.Alloc(sA, 2)
		aB = tx.Alloc(sB, 2)
		aD = tx.Alloc(memory.DefaultSite, 2)
		tx.Store(aA, 1)
		tx.Store(aB, 2)
		tx.Store(aD, 3)
		return nil
	})
	if p := e.PartitionOfAddr(aA); p.ID() != 1 || p.Name() != "partA" {
		t.Fatalf("aA in partition %d (%s)", p.ID(), p.Name())
	}
	if p := e.PartitionOfAddr(aB); p.ID() != 2 {
		t.Fatalf("aB in partition %d", p.ID())
	}
	if p := e.PartitionOfAddr(aD); p.ID() != GlobalPartition {
		t.Fatalf("aD in partition %d", p.ID())
	}
	if got := e.Partition(1).Config().Read; got != VisibleReads {
		t.Fatalf("partA read mode = %v", got)
	}
}

func TestInstallPlanValidation(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	if err := e.InstallPlan(nil, nil, nil); err == nil {
		t.Fatal("empty plan accepted")
	}
	if err := e.InstallPlan([]PartID{5}, []string{"g"}, []PartConfig{DefaultPartConfig()}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if err := e.InstallPlan(nil, []string{"g", "x"}, []PartConfig{DefaultPartConfig()}); err == nil {
		t.Fatal("mismatched names/configs accepted")
	}
}

func TestCrossPartitionAtomicity(t *testing.T) {
	// A transfer between two partitions with different configurations must
	// stay atomic: the sum across partitions is invariant.
	e := newTestEngine(t, DefaultPartConfig())
	sites := e.Arena().Sites()
	sA := sites.Register("xa")
	sB := sites.Register("xb")
	sitePart := make([]PartID, sites.Count())
	sitePart[sA] = 1
	sitePart[sB] = 2
	cfgVis := DefaultPartConfig()
	cfgVis.Read = VisibleReads
	cfgCTL := DefaultPartConfig()
	cfgCTL.Acquire = CommitTime
	if err := e.InstallPlan(sitePart, []string{"g", "vis", "ctl"},
		[]PartConfig{DefaultPartConfig(), cfgVis, cfgCTL}); err != nil {
		t.Fatal(err)
	}

	setup := e.BorrowThread()
	var accA, accB memory.Addr
	setup.Run(func(tx *Tx) error {
		accA = tx.Alloc(sA, 1)
		accB = tx.Alloc(sB, 1)
		tx.Store(accA, 10000)
		tx.Store(accB, 10000)
		return nil
	})
	e.ReturnThread(setup)

	const workers = 6
	const iters = 2000
	var wg sync.WaitGroup
	var inconsistent atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			for i := 0; i < iters; i++ {
				if id%2 == 0 {
					th.Run(func(tx *Tx) error {
						a := tx.Load(accA)
						if a == 0 {
							return nil
						}
						tx.Store(accA, a-1)
						tx.Store(accB, tx.Load(accB)+1)
						return nil
					})
				} else {
					th.Run(func(tx *Tx) error {
						sum := tx.Load(accA) + tx.Load(accB)
						if sum != 20000 {
							inconsistent.Add(1)
						}
						return nil
					})
				}
			}
		}(w)
	}
	wg.Wait()
	if n := inconsistent.Load(); n != 0 {
		t.Fatalf("%d transactions observed a broken cross-partition sum", n)
	}
	var final uint64
	check := e.BorrowThread()
	check.Run(func(tx *Tx) error { final = tx.Load(accA) + tx.Load(accB); return nil })
	if final != 20000 {
		t.Fatalf("final sum = %d, want 20000", final)
	}
}

func TestReconfigureUnderLoad(t *testing.T) {
	// Flip the global partition between configurations while workers hammer
	// a counter; the count must be exact and the engine must not deadlock.
	e := newTestEngine(t, DefaultPartConfig())
	setup := e.BorrowThread()
	var a memory.Addr
	setup.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	e.ReturnThread(setup)
	e.SetYieldEveryOps(4) // interleave inside transactions on one CPU too

	// Event-driven in both directions, so the outcome does not depend on
	// how a low-core scheduler slices the goroutines: workers increment
	// until they have seen wantReconfigs reconfigurations, and every
	// reconfiguration waits for the workers to have committed under the
	// configuration before it.
	const workers = 4
	const wantReconfigs = 12 // every mode twice
	var committed, reconfigs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			for reconfigs.Load() < wantReconfigs {
				th.Run(func(tx *Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
				committed.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer reconfigs.Store(wantReconfigs) // release the workers on failure too
		cfgs := []PartConfig{}
		for _, c := range allModeConfigs() {
			cfgs = append(cfgs, c)
		}
		for i := 0; i < wantReconfigs; i++ {
			for mark := committed.Load(); committed.Load() < mark+workers; {
				runtime.Gosched()
			}
			if err := e.Reconfigure(GlobalPartition, cfgs[i%len(cfgs)]); err != nil {
				t.Errorf("Reconfigure: %v", err)
				return
			}
			reconfigs.Add(1)
		}
	}()
	wg.Wait()

	if got := e.stwCount.Load(); got == 0 {
		t.Fatal("stwCount = 0")
	}
	check := e.BorrowThread()
	check.Run(func(tx *Tx) error {
		if got := tx.Load(a); got != uint64(committed.Load()) {
			t.Errorf("counter = %d, want %d (lost updates across reconfiguration)", got, committed.Load())
		}
		return nil
	})
}

func TestReconfigureUnknownPartition(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	if err := e.Reconfigure(42, DefaultPartConfig()); err == nil {
		t.Fatal("Reconfigure of unknown partition succeeded")
	}
}

func TestGenerationAdvances(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	p := e.Partition(GlobalPartition)
	g0 := p.state.Load().gen
	cfg := p.Config()
	cfg.LockBits = 8
	if err := e.Reconfigure(GlobalPartition, cfg); err != nil {
		t.Fatal(err)
	}
	if p.state.Load().gen != g0+1 {
		t.Fatalf("generation %d -> %d, want +1", g0, p.state.Load().gen)
	}
	if p.Config().LockBits != 8 {
		t.Fatalf("LockBits = %d after reconfigure", p.Config().LockBits)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	var a memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	for i := 0; i < 10; i++ {
		th.Run(func(tx *Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	}
	for i := 0; i < 5; i++ {
		th.Run(func(tx *Tx) error { tx.Load(a); return nil }, ReadOnly())
	}
	s := e.StatsSnapshot(GlobalPartition)
	if s.Commits != 16 {
		t.Errorf("Commits = %d, want 16", s.Commits)
	}
	if s.UpdateCommits != 11 {
		t.Errorf("UpdateCommits = %d, want 11", s.UpdateCommits)
	}
	if s.ROCommits != 5 {
		t.Errorf("ROCommits = %d, want 5", s.ROCommits)
	}
	if s.Loads < 15 {
		t.Errorf("Loads = %d, want >= 15", s.Loads)
	}
	if s.Stores != 11 {
		t.Errorf("Stores = %d, want 11", s.Stores)
	}
	if s.UpdateRatio() <= 0.5 {
		t.Errorf("UpdateRatio = %v", s.UpdateRatio())
	}
	all := e.AllStats()
	if len(all) != 1 || all[0].Commits != s.Commits {
		t.Errorf("AllStats mismatch: %+v", all)
	}
}

func TestStatsDelta(t *testing.T) {
	a := PartStats{Commits: 10, Loads: 100}
	a.Aborts[AbortValidation] = 4
	b := PartStats{Commits: 25, Loads: 180}
	b.Aborts[AbortValidation] = 9
	d := b.Sub(a)
	if d.Commits != 15 || d.Loads != 80 || d.Aborts[AbortValidation] != 5 {
		t.Fatalf("delta = %+v", d)
	}
	if d.TotalAborts() != 5 {
		t.Fatalf("TotalAborts = %d", d.TotalAborts())
	}
	if r := d.AbortRate(); r < 0.24 || r > 0.26 {
		t.Fatalf("AbortRate = %v", r)
	}
}

func TestAdvanceClockStress(t *testing.T) {
	// Jump the clock far ahead; transactions must keep working (snapshot
	// extension against large timestamps).
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	var a memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 1)
		return nil
	})
	e.AdvanceClock(1 << 40)
	th.Run(func(tx *Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	th.Run(func(tx *Tx) error {
		if got := tx.Load(a); got != 2 {
			t.Errorf("value = %d", got)
		}
		return nil
	})
	if e.Clock() < 1<<40 {
		t.Fatalf("clock = %d", e.Clock())
	}
}

// TestThreadSlotExhaustionAndReuse: the pool creates at most MaxThreads
// Threads; a borrow beyond them parks until a Thread comes back, and then
// gets that very Thread.
func TestThreadSlotExhaustionAndReuse(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	var ths []*Thread
	for i := 0; i < MaxThreads; i++ {
		ths = append(ths, e.BorrowThread())
	}
	if ps := e.PoolStats(); ps.Size != MaxThreads || ps.Idle != 0 {
		t.Fatalf("pool after %d borrows: %+v", MaxThreads, ps)
	}
	got := make(chan *Thread)
	go func() { got <- e.BorrowThread() }()
	select {
	case th := <-got:
		t.Fatalf("borrow %d got slot %d with every slot busy", MaxThreads+1, th.slot)
	case <-time.After(20 * time.Millisecond):
	}
	e.ReturnThread(ths[10])
	if th := <-got; th != ths[10] || th.slot != 10 {
		t.Fatalf("parked borrow got slot %d, want the returned slot 10", th.slot)
	}
}

func TestExplicitAbortRetries(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	var a memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	tries := 0
	th.Run(func(tx *Tx) error {
		tries++
		if tries < 3 {
			tx.Abort()
		}
		tx.Store(a, uint64(tries))
		return nil
	})
	if tries != 3 {
		t.Fatalf("tries = %d, want 3", tries)
	}
	th.Run(func(tx *Tx) error {
		if got := tx.Load(a); got != 3 {
			t.Errorf("value = %d, want 3", got)
		}
		return nil
	})
}
