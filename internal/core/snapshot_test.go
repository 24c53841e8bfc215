package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memory"
)

// snapTestSetup builds an engine whose global partition runs cfg, with a
// cells-wide transfer array initialized to initVal per cell.
func snapTestSetup(t *testing.T, cfg PartConfig, cells int, initVal uint64) (*Engine, memory.Addr) {
	t.Helper()
	e := newTestEngine(t, cfg)
	var base memory.Addr
	setup := e.BorrowThread()
	setup.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.SiteID(0), cells)
		for j := 0; j < cells; j++ {
			tx.Store(base+memory.Addr(j), initVal)
		}
		return nil
	})
	e.ReturnThread(setup)
	return e, base
}

// TestSnapshotTortureWriteModes mixes snapshot-mode scans with transfer
// transactions in all three write modes. Writers conserve the array sum;
// every snapshot scan must observe exactly that sum — a torn snapshot
// (two instants mixed in one scan) breaks it immediately. Each writer
// runs a fixed number of transfers whose history records (at most two per
// transfer) all fit in the snapshot store's ring, so no record a scan
// needs is ever evicted, however long the scan is descheduled, and the
// scans must additionally be abort-free.
func TestSnapshotTortureWriteModes(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	modes := []struct {
		name string
		mut  func(*PartConfig)
	}{
		{"wb", func(c *PartConfig) {}},
		{"wt", func(c *PartConfig) { c.Write = WriteThrough }},
		{"ctl", func(c *PartConfig) { c.Acquire = CommitTime }},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultPartConfig()
			cfg.HistCap = 1 << 16
			m.mut(&cfg)
			const cells = 32
			const initVal = 1000
			e, base := snapTestSetup(t, cfg, cells, initVal)
			e.SetYieldEveryOps(16)

			var (
				stop        atomic.Bool
				wg, writing sync.WaitGroup
				scanAborts  atomic.Uint64
				scans       atomic.Uint64
				sumViolated atomic.Uint64
			)
			const writers, transfers = 3, 5000 // 30 000 records at most
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(seed int64) {
					defer writing.Done()
					th := e.BorrowThread()
					defer e.ReturnThread(th)
					rng := rand.New(rand.NewSource(seed))
					for range transfers {
						i := memory.Addr(rng.Intn(cells))
						j := memory.Addr(rng.Intn(cells))
						d := uint64(rng.Intn(5))
						th.Run(func(tx *Tx) error {
							vi := tx.Load(base + i)
							if vi < d {
								return nil
							}
							tx.Store(base+i, vi-d)
							tx.Store(base+j, tx.Load(base+j)+d)
							return nil
						})
					}
				}(int64(w) + 1)
			}
			const readers = 2
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := e.BorrowThread()
					defer e.ReturnThread(th)
					for {
						attempts := uint64(0)
						th.Run(func(tx *Tx) error {
							attempts++
							var sum uint64
							for j := 0; j < cells; j++ {
								sum += tx.Load(base + memory.Addr(j))
							}
							if sum != cells*initVal {
								sumViolated.Store(sum)
							}
							return nil
						}, Snapshot())
						scans.Add(1)
						scanAborts.Add(attempts - 1)
						if stop.Load() {
							return
						}
					}
				}()
			}
			writing.Wait()
			stop.Store(true)
			wg.Wait()

			if v := sumViolated.Load(); v != 0 {
				t.Fatalf("snapshot scan observed sum %d, want %d (torn snapshot)", v, cells*initVal)
			}
			if scans.Load() == 0 {
				t.Fatal("no snapshot scans completed")
			}
			st := e.StatsSnapshot(GlobalPartition)
			hist := e.SnapshotHistory(GlobalPartition)
			if hist.Appends > uint64(hist.Cap) {
				t.Fatalf("%d history records appended into a ring of %d: retention is not ample", hist.Appends, hist.Cap)
			}
			if a := scanAborts.Load(); a != 0 {
				var causes []string
				for c, n := range st.Aborts {
					if n != 0 {
						causes = append(causes, fmt.Sprintf("%v=%d", AbortCause(c), n))
					}
				}
				t.Errorf("snapshot scans aborted %d times with every record retained (expected abort-free); aborts by cause: %v", a, causes)
			}
			if st.SnapHits == 0 {
				t.Error("no snapshot-store hits recorded under saturating writers")
			}
			if hist.Cap == 0 || hist.Appends == 0 {
				t.Errorf("snapshot store idle: %+v", hist)
			}
		})
	}
}

// TestSnapshotOverflowFallsBack shrinks the store to the minimum ring so
// records the readers need are routinely evicted: scans must stay
// consistent (the validate/extend fallback takes over) and the miss
// counter must move — proving the fallback path actually runs.
func TestSnapshotOverflowFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	cfg := DefaultPartConfig()
	cfg.HistCap = 1 // rounds up to the 8-record minimum ring
	const cells = 64
	const initVal = 500
	e, base := snapTestSetup(t, cfg, cells, initVal)
	e.SetYieldEveryOps(8)

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		bad  atomic.Uint64
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := memory.Addr(rng.Intn(cells))
				j := memory.Addr(rng.Intn(cells))
				th.Run(func(tx *Tx) error {
					vi := tx.Load(base + i)
					if vi == 0 {
						return nil
					}
					tx.Store(base+i, vi-1)
					tx.Store(base+j, tx.Load(base+j)+1)
					return nil
				})
			}
		}(int64(w) + 1)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := e.BorrowThread()
		defer e.ReturnThread(th)
		for !stop.Load() {
			th.Run(func(tx *Tx) error {
				var sum uint64
				for j := 0; j < cells; j++ {
					sum += tx.Load(base + memory.Addr(j))
				}
				if sum != cells*initVal {
					bad.Store(sum)
				}
				return nil
			}, Snapshot())
		}
	}()
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if v := bad.Load(); v != 0 {
		t.Fatalf("scan observed sum %d, want %d", v, cells*initVal)
	}
	st := e.StatsSnapshot(GlobalPartition)
	if st.SnapMisses == 0 {
		t.Error("no snapshot-store misses despite a minimum-size ring; overflow fallback untested")
	}
	if st.ROCommits == 0 {
		t.Error("no read-only commits: the fallback path never completed a scan")
	}
}

// TestSnapshotUpgradeOnWrite: a write inside a Snapshot Run restarts the
// transaction in update mode, as under ReadOnly.
func TestSnapshotUpgradeOnWrite(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.HistCap = 64
	e, base := snapTestSetup(t, cfg, 4, 7)
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	sawSnap, sawUpdate := false, false
	th.Run(func(tx *Tx) error {
		if tx.snapMode {
			sawSnap = true
		} else {
			sawUpdate = true
		}
		tx.Store(base, tx.Load(base)+1)
		return nil
	}, Snapshot())
	if !sawSnap || !sawUpdate {
		t.Fatalf("snapshot upgrade: first attempt snap=%v, retry update=%v", sawSnap, sawUpdate)
	}
	var v uint64
	th.Run(func(tx *Tx) error { v = tx.Load(base); return nil }, ReadOnly())
	if v != 8 {
		t.Fatalf("upgraded write lost: %d, want 8", v)
	}
	st := e.StatsSnapshot(GlobalPartition)
	if st.Aborts[AbortUpgrade] == 0 {
		t.Fatal("no upgrade abort recorded")
	}
}

// TestSnapshotReadsHistoricalValue pins a snapshot, lets a writer commit
// over the whole array, and checks the snapshot transaction still reads
// the pre-write values from the store (counted as hits).
func TestSnapshotReadsHistoricalValue(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.HistCap = 256
	const cells = 8
	e, base := snapTestSetup(t, cfg, cells, 11)
	reader := e.BorrowThread()
	writer := e.BorrowThread()
	defer e.ReturnThread(reader)
	defer e.ReturnThread(writer)

	var hits uint64
	reader.Run(func(tx *Tx) error {
		// First load pins the snapshot.
		if got := tx.Load(base); got != 11 {
			t.Errorf("cell 0 = %d, want 11", got)
		}
		// A writer commits over every cell AFTER the pin.
		writer.Run(func(wtx *Tx) error {
			for j := 0; j < cells; j++ {
				wtx.Store(base+memory.Addr(j), 99)
			}
			return nil
		})
		for j := 1; j < cells; j++ {
			if got := tx.Load(base + memory.Addr(j)); got != 11 {
				t.Errorf("cell %d = %d at pinned snapshot, want 11", j, got)
			}
		}
		hits = tx.SnapshotHits()
		return nil
	}, Snapshot())
	if hits != cells-1 {
		t.Fatalf("snapshot hits = %d, want %d (one per overwritten cell read)", hits, cells-1)
	}
	var now uint64
	reader.Run(func(tx *Tx) error { now = tx.Load(base); return nil }, ReadOnly())
	if now != 99 {
		t.Fatalf("post-snapshot read = %d, want 99", now)
	}
}

// TestInstallPlanSiteKeyedCarryover: when a partition's site membership
// survives a plan install, its statistics follow it to the new PartID
// instead of folding into the global aggregate; changed memberships still
// fold. Engine-wide totals stay monotonic either way.
func TestInstallPlanSiteKeyedCarryover(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	sites := e.Arena().Sites()
	sa := sites.Register("carry.a")
	sb := sites.Register("carry.b")
	install := func(pa, pb PartID, names []string) {
		t.Helper()
		full := make([]PartID, sites.Count())
		full[sa], full[sb] = pa, pb
		cfgs := make([]PartConfig, len(names))
		for i := range cfgs {
			cfgs[i] = DefaultPartConfig()
		}
		if err := e.InstallPlan(full, names, cfgs); err != nil {
			t.Fatal(err)
		}
	}
	install(1, 2, []string{"g", "a", "b"})

	th := e.BorrowThread()
	var aAddr, bAddr memory.Addr
	th.Run(func(tx *Tx) error {
		aAddr = tx.Alloc(sa, 1)
		bAddr = tx.Alloc(sb, 1)
		tx.Store(aAddr, 0)
		tx.Store(bAddr, 0)
		return nil
	})
	const nA, nB = 300, 100
	for i := 0; i < nA; i++ {
		th.Run(func(tx *Tx) error { tx.Store(aAddr, tx.Load(aAddr)+1); return nil })
	}
	for i := 0; i < nB; i++ {
		th.Run(func(tx *Tx) error { tx.Store(bAddr, tx.Load(bAddr)+1); return nil })
	}
	aBefore := e.StatsSnapshot(1).Commits
	bBefore := e.StatsSnapshot(2).Commits
	if aBefore < nA || bBefore < nB {
		t.Fatalf("precondition: a=%d b=%d commits", aBefore, bBefore)
	}
	totalBefore := func() uint64 {
		var c uint64
		for _, s := range e.AllStats() {
			c += s.Commits
		}
		return c
	}()

	// Reinstall with partition ids swapped: site membership is identity,
	// so a's history must land on the NEW id owning site a (now 2), and
	// b's on 1.
	install(2, 1, []string{"g", "bb", "aa"})
	if got := e.StatsSnapshot(2).Commits; got != aBefore {
		t.Errorf("site-a partition carried %d commits, want %d", got, aBefore)
	}
	if got := e.StatsSnapshot(1).Commits; got != bBefore {
		t.Errorf("site-b partition carried %d commits, want %d", got, bBefore)
	}

	// Merge both sites into one partition: membership changed, history
	// folds into the global aggregate; totals must not drop.
	install(1, 1, []string{"g", "ab"})
	if got := e.StatsSnapshot(GlobalPartition).Commits; got < aBefore+bBefore {
		t.Errorf("global aggregate %d lost folded history (want >= %d)", got, aBefore+bBefore)
	}
	totalAfter := func() uint64 {
		var c uint64
		for _, s := range e.AllStats() {
			c += s.Commits
		}
		return c
	}()
	if totalAfter < totalBefore {
		t.Errorf("engine-wide commits dropped across installs: %d -> %d", totalBefore, totalAfter)
	}
	e.ReturnThread(th)
}
