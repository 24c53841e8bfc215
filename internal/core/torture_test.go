package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memory"
)

// TestTortureMixedEverything is the kitchen-sink stress test: several
// partitions with heterogeneous configurations, workers running transfer
// rings, long scans, allocation churn and explicit aborts, while a
// control goroutine keeps reconfiguring partitions (visibility flips,
// geometry changes, CM changes) under load. One invariant decides
// everything: the global sum across all cells never changes, observed by
// every scan and verified at the end.
func TestTortureMixedEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	e := newTestEngine(t, DefaultPartConfig())
	e.SetYieldEveryOps(16)
	sites := e.Arena().Sites()
	const nParts = 4
	var siteIDs [nParts]memory.SiteID
	names := []string{"g"}
	cfgs := []PartConfig{DefaultPartConfig()}
	for i := 0; i < nParts; i++ {
		siteIDs[i] = sites.Register("torture." + string(rune('a'+i)))
		names = append(names, "torture."+string(rune('a'+i)))
		cfg := DefaultPartConfig()
		switch i % 4 {
		case 1:
			cfg.Read = VisibleReads
			cfg.ReaderCM = WriterYieldsToReaders
		case 2:
			cfg.Write = WriteThrough
			cfg.CM = CMTimestamp
		case 3:
			cfg.Acquire = CommitTime
			cfg.LockBits = 6
			cfg.GranShift = 2
		}
		cfgs = append(cfgs, cfg)
	}
	full := make([]PartID, sites.Count())
	for i := 0; i < nParts; i++ {
		full[siteIDs[i]] = PartID(i + 1)
	}
	if err := e.InstallPlan(full, names, cfgs); err != nil {
		t.Fatal(err)
	}

	// One cell array per partition; ring transfers cross partitions.
	const cellsPer = 16
	const initVal = 100
	var bases [nParts]memory.Addr
	setup := e.BorrowThread()
	setup.Run(func(tx *Tx) error {
		for i := 0; i < nParts; i++ {
			bases[i] = tx.Alloc(siteIDs[i], cellsPer)
			for j := 0; j < cellsPer; j++ {
				tx.Store(bases[i]+memory.Addr(j), initVal)
			}
		}
		return nil
	})
	e.ReturnThread(setup)
	const wantTotal = nParts * cellsPer * initVal

	stop := make(chan struct{})
	var badSum atomic.Uint64
	var wg sync.WaitGroup

	// Workers: transfers, scans, churn, explicit aborts.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5: // cross-partition transfer
					fp, tp := rng.Intn(nParts), rng.Intn(nParts)
					fc, tc := rng.Intn(cellsPer), rng.Intn(cellsPer)
					amt := uint64(rng.Intn(5) + 1)
					th.Run(func(tx *Tx) error {
						src := bases[fp] + memory.Addr(fc)
						dst := bases[tp] + memory.Addr(tc)
						if src == dst {
							return nil
						}
						v := tx.Load(src)
						if v < amt {
							return nil
						}
						tx.Store(src, v-amt)
						tx.Store(dst, tx.Load(dst)+amt)
						return nil
					})
				case 6, 7: // full read-only scan: sum must be exact
					th.Run(func(tx *Tx) error {
						var sum uint64
						for p := 0; p < nParts; p++ {
							for j := 0; j < cellsPer; j++ {
								sum += tx.Load(bases[p] + memory.Addr(j))
							}
						}
						if sum != wantTotal {
							badSum.Add(1)
						}
						return nil
					}, ReadOnly())
				case 8: // allocation churn in a random partition
					p := rng.Intn(nParts)
					th.Run(func(tx *Tx) error {
						a := tx.Alloc(siteIDs[p], 4)
						tx.Store(a, 1)
						tx.Free(a, 4)
						return nil
					})
				default: // doomed transaction: writes then aborts via user error
					p := rng.Intn(nParts)
					c := rng.Intn(cellsPer)
					_ = th.Run(func(tx *Tx) error {
						a := bases[p] + memory.Addr(c)
						tx.Store(a, tx.Load(a)+1_000_000) // would break the sum
						return ErrExplicitAbort           // ...but never commits
					})
				}
				_ = i
			}
		}(int64(w) + 1)
	}

	// Controller: random reconfigurations under load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 40; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := PartID(rng.Intn(nParts) + 1)
			cfg := e.Partition(id).Config()
			switch rng.Intn(4) {
			case 0:
				if cfg.Read == InvisibleReads {
					cfg.Read = VisibleReads
					cfg.ReaderCM = WriterYieldsToReaders
				} else {
					cfg.Read = InvisibleReads
				}
			case 1:
				cfg.LockBits = uint(4 + rng.Intn(10))
			case 2:
				cfg.GranShift = uint(rng.Intn(4))
			default:
				cfg.CM = []CMPolicy{CMSuicide, CMSpin, CMKarma, CMTimestamp, CMBackoff}[rng.Intn(5)]
			}
			if err := e.Reconfigure(id, cfg); err != nil {
				t.Errorf("reconfigure: %v", err)
				return
			}
		}
	}()

	// Let it cook briefly, then stop.
	waitCommits(t, e, 10_000)
	close(stop)
	wg.Wait()

	if n := badSum.Load(); n != 0 {
		t.Fatalf("%d scans observed a broken global sum", n)
	}
	check := e.BorrowThread()
	defer e.ReturnThread(check)
	check.Run(func(tx *Tx) error {
		var sum uint64
		for p := 0; p < nParts; p++ {
			for j := 0; j < cellsPer; j++ {
				sum += tx.Load(bases[p] + memory.Addr(j))
			}
		}
		if sum != wantTotal {
			t.Fatalf("final sum %d, want %d", sum, wantTotal)
		}
		return nil
	})
	// No locks or reader bits may survive quiescence.
	for _, p := range e.Partitions() {
		ps := p.loadState()
		for i := range ps.table.orecs {
			if l := ps.table.orecs[i].lock.Load(); isLocked(l) {
				t.Fatalf("partition %s orec %d leaked lock", p.Name(), i)
			}
		}
		for i := range ps.table.readers {
			if r := ps.table.readers[i].Load(); r != 0 {
				t.Fatalf("partition %s reader word %d leaked bits %b", p.Name(), i, r)
			}
		}
	}
}

// waitCommits polls until the engine has accumulated at least n commits
// across all partitions (bounded by test timeout). It sleeps between
// polls: AllStats takes the registry lock, and a tight polling loop
// starves the workers it is waiting for on small hosts.
func waitCommits(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	for {
		var total uint64
		for _, s := range e.AllStats() {
			total += s.Commits
		}
		if total >= n {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}
