package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memory"
)

// partTestSetup installs nParts partitions (plus the global default), one
// allocation site each, and fills one cell array per partition. It
// returns the base address of each partition's cells.
func partTestSetup(t *testing.T, e *Engine, nParts, cellsPer int, initVal uint64) []memory.Addr {
	t.Helper()
	sites := e.Arena().Sites()
	siteIDs := make([]memory.SiteID, nParts)
	names := []string{"g"}
	cfgs := []PartConfig{DefaultPartConfig()}
	for i := 0; i < nParts; i++ {
		siteIDs[i] = sites.Register("clk." + string(rune('a'+i)))
		names = append(names, "clk."+string(rune('a'+i)))
		cfgs = append(cfgs, DefaultPartConfig())
	}
	full := make([]PartID, sites.Count())
	for i := 0; i < nParts; i++ {
		full[siteIDs[i]] = PartID(i + 1)
	}
	if err := e.InstallPlan(full, names, cfgs); err != nil {
		t.Fatal(err)
	}

	bases := make([]memory.Addr, nParts)
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
	return bases
}

// TestCrossPartitionBank is the torture-style serializability test for
// transactions spanning partitions on the one commit clock: bank
// transfers within and across four partitions, with interleaving
// simulation, while read-only audits assert the conserved total. Any
// inconsistent cut across partitions would surface as a broken sum.
func TestCrossPartitionBank(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	e.SetYieldEveryOps(16)
	const nParts = 4
	const cellsPer = 8
	const initVal = 1000
	bases := partTestSetup(t, e, nParts, cellsPer, initVal)
	const wantTotal = nParts * cellsPer * initVal

	stop := make(chan struct{})
	var badSum atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5: // transfer; half stay inside one partition
					fp := rng.Intn(nParts)
					tp := fp
					if rng.Intn(2) == 0 {
						tp = rng.Intn(nParts)
					}
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
				default: // audit: cross-partition read-only scan
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
				}
			}
		}(int64(w) + 1)
	}

	waitCommits(t, e, 8_000)
	close(stop)
	wg.Wait()

	if n := badSum.Load(); n != 0 {
		t.Fatalf("%d audits observed a broken total", n)
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
}

// TestInstallPlanMidTrafficTimeBaseMonotonic is the regression test for
// plan installs on a live engine: every install rebuilds every orec table,
// and the commit clock may never move backwards across one, or snapshots
// taken after the install could precede versions minted before it.
func TestInstallPlanMidTrafficTimeBaseMonotonic(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	e.SetYieldEveryOps(8)
	sites := e.Arena().Sites()
	s0 := sites.Register("mono.a")
	s1 := sites.Register("mono.b")

	var a0, a1 memory.Addr
	setup := e.BorrowThread()
	setup.Run(func(tx *Tx) error {
		a0 = tx.Alloc(s0, 1)
		a1 = tx.Alloc(s1, 1)
		tx.Store(a0, 500)
		tx.Store(a1, 500)
		return nil
	})
	e.ReturnThread(setup)

	stop := make(chan struct{})
	var badSum atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(3) == 0 {
					th.Run(func(tx *Tx) error {
						if tx.Load(a0)+tx.Load(a1) != 1000 {
							badSum.Add(1)
						}
						return nil
					}, ReadOnly())
					continue
				}
				th.Run(func(tx *Tx) error {
					v := tx.Load(a0)
					if v == 0 {
						return nil
					}
					tx.Store(a0, v-1)
					tx.Store(a1, tx.Load(a1)+1)
					return nil
				})
			}
		}(int64(w) + 7)
	}

	// Install a sequence of plans with growing partition counts while the
	// transfer traffic runs.
	plans := [][]PartID{
		{0, 1, 2}, // a and b in their own partitions
		{0, 1, 1}, // both in one
		{0, 1, 2}, // split again
		{0, 2, 1}, // swapped
	}
	prevClock := e.Clock()
	for round, assign := range plans {
		full := make([]PartID, sites.Count())
		copy(full, assign)
		names := []string{"g", "p1", "p2"}
		cfgs := []PartConfig{DefaultPartConfig(), DefaultPartConfig(), DefaultPartConfig()}
		if err := e.InstallPlan(full, names, cfgs); err != nil {
			t.Fatal(err)
		}
		c := e.Clock()
		if c < prevClock {
			t.Fatalf("round %d: clock moved backwards %d -> %d", round, prevClock, c)
		}
		if c < initialStamp {
			t.Fatalf("round %d: clock %d below initialStamp", round, c)
		}
		prevClock = c
		waitCommits(t, e, uint64(2000*(round+1)))
	}
	close(stop)
	wg.Wait()
	if n := badSum.Load(); n != 0 {
		t.Fatalf("%d scans observed a broken sum across plan installs", n)
	}
}
