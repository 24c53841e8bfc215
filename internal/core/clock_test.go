package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/memory"
)

// plTestSetup installs nParts partitions (plus the global default), one
// allocation site each, fills one cell array per partition, and switches
// the engine to the partition-local time base. It returns the site ids
// and the base address of each partition's cells.
func plTestSetup(t *testing.T, e *Engine, nParts, cellsPer int, initVal uint64) ([]memory.SiteID, []memory.Addr) {
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
	e.SetTimeBaseMode(TimeBasePartitionLocal)

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
	return siteIDs, bases
}

// TestPartitionLocalNoSharedRMW is the acceptance check for the
// partition-local time base: update transactions confined to a single
// partition must never perform a shared-counter read-modify-write, i.e.
// the cross-partition epoch stays put while the per-partition counters
// advance. A single deliberate cross-partition transaction then moves the
// epoch by exactly one.
func TestPartitionLocalNoSharedRMW(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	_, bases := plTestSetup(t, e, 2, 4, 100)

	cs0 := e.ClockStats()
	if cs0.Mode != clock.ModePartitionLocal {
		t.Fatalf("mode = %v", cs0.Mode)
	}

	th := e.BorrowThread()
	defer e.ReturnThread(th)
	const updates = 500
	for i := 0; i < updates; i++ {
		p := i % 2
		th.Run(func(tx *Tx) error {
			a := bases[p] + memory.Addr(i%4)
			tx.Store(a, tx.Load(a)+1)
			return nil
		})
	}
	cs1 := e.ClockStats()
	if got := cs1.SharedRMWs - cs0.SharedRMWs; got != 0 {
		t.Fatalf("single-partition updates performed %d shared RMWs", got)
	}
	if got := cs1.CrossCommits - cs0.CrossCommits; got != 0 {
		t.Fatalf("cross-commit count moved by %d without cross-partition transactions", got)
	}
	if ticks := cs1.LocalTicks - cs0.LocalTicks; ticks != updates {
		t.Fatalf("local ticks = %d, want %d", ticks, updates)
	}

	// One transaction spanning both partitions: exactly one epoch bump.
	th.Run(func(tx *Tx) error {
		tx.Store(bases[0], tx.Load(bases[0])+1)
		tx.Store(bases[1], tx.Load(bases[1])-1)
		return nil
	})
	cs2 := e.ClockStats()
	if got := cs2.CrossCommits - cs1.CrossCommits; got != 1 {
		t.Fatalf("cross-partition commit bumped epoch by %d, want 1", got)
	}
	if got := cs2.SharedRMWs - cs1.SharedRMWs; got != 1 {
		t.Fatalf("cross-partition commit performed %d shared RMWs, want 1", got)
	}
}

// TestPartitionLocalCrossPartitionBank is the torture-style
// serializability test for the partition-local time base: bank transfers
// within and across partitions, with interleaving simulation, while
// read-only audits assert the conserved total and a controller keeps
// flipping the time base under load. Any snapshot misalignment between
// partitions would surface as a broken sum.
func TestPartitionLocalCrossPartitionBank(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	e.SetYieldEveryOps(16)
	const nParts = 4
	const cellsPer = 8
	const initVal = 1000
	_, bases := plTestSetup(t, e, nParts, cellsPer, initVal)
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

	// Controller: flip the time base under load; each switch must migrate
	// commit time monotonically.
	wg.Add(1)
	go func() {
		defer wg.Done()
		modes := []TimeBaseMode{TimeBaseGlobal, TimeBasePartitionLocal}
		for i := 0; i < 20; i++ {
			select {
			case <-stop:
				return
			default:
			}
			before := e.Clock()
			e.SetTimeBaseMode(modes[i%2])
			if after := e.Clock(); after < before {
				t.Errorf("time base switch moved clock backwards: %d -> %d", before, after)
				return
			}
		}
	}()

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
// plan installs on a live partition-local engine: every install resizes
// the counter set, and no partition's counter — nor the engine ceiling —
// may ever move backwards, or snapshots taken after the install could
// precede versions minted before it.
func TestInstallPlanMidTrafficTimeBaseMonotonic(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	e.SetYieldEveryOps(8)
	sites := e.Arena().Sites()
	s0 := sites.Register("mono.a")
	s1 := sites.Register("mono.b")
	e.SetTimeBaseMode(TimeBasePartitionLocal)

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
	prevCeiling := e.Clock()
	for round, assign := range plans {
		full := make([]PartID, sites.Count())
		copy(full, assign)
		names := []string{"g", "p1", "p2"}
		cfgs := []PartConfig{DefaultPartConfig(), DefaultPartConfig(), DefaultPartConfig()}
		if err := e.InstallPlan(full, names, cfgs); err != nil {
			t.Fatal(err)
		}
		cs := e.ClockStats()
		for p, v := range cs.Parts {
			if v < prevCeiling {
				t.Fatalf("round %d: partition %d counter %d below prior ceiling %d", round, p, v, prevCeiling)
			}
			if v < clock.InitialStamp {
				t.Fatalf("round %d: partition %d counter %d below InitialStamp", round, p, v)
			}
		}
		if c := e.Clock(); c < prevCeiling {
			t.Fatalf("round %d: ceiling moved backwards %d -> %d", round, prevCeiling, c)
		}
		prevCeiling = e.Clock()
		waitCommits(t, e, uint64(2000*(round+1)))
	}
	close(stop)
	wg.Wait()
	if n := badSum.Load(); n != 0 {
		t.Fatalf("%d scans observed a broken sum across plan installs", n)
	}
}

// TestPartitionLocalAllPartConfigs runs the cross-partition transfer
// invariant under the partition-local time base for every concurrency
// configuration (visible reads, write-through, commit-time locking, and
// their CM variants): time-base correctness must be orthogonal to the
// per-partition protocol choices.
func TestPartitionLocalAllPartConfigs(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, cfg)
			e.SetYieldEveryOps(8)
			sites := e.Arena().Sites()
			sa := sites.Register("mix.a")
			sb := sites.Register("mix.b")
			full := make([]PartID, sites.Count())
			full[sa], full[sb] = 1, 2
			if err := e.InstallPlan(full, []string{"g", "a", "b"}, []PartConfig{cfg, cfg, cfg}); err != nil {
				t.Fatal(err)
			}
			e.SetTimeBaseMode(TimeBasePartitionLocal)

			var aa, ab memory.Addr
			setup := e.BorrowThread()
			setup.Run(func(tx *Tx) error {
				aa = tx.Alloc(sa, 1)
				ab = tx.Alloc(sb, 1)
				tx.Store(aa, 300)
				tx.Store(ab, 300)
				return nil
			})
			e.ReturnThread(setup)

			var wg sync.WaitGroup
			var bad atomic.Uint64
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					th := e.BorrowThread()
					defer e.ReturnThread(th)
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 400; i++ {
						if rng.Intn(4) == 0 {
							th.Run(func(tx *Tx) error {
								if tx.Load(aa)+tx.Load(ab) != 600 {
									bad.Add(1)
								}
								return nil
							}, ReadOnly())
							continue
						}
						th.Run(func(tx *Tx) error {
							v := tx.Load(aa)
							if v == 0 {
								return nil
							}
							tx.Store(aa, v-1)
							tx.Store(ab, tx.Load(ab)+1)
							return nil
						})
					}
				}(int64(w) + 3)
			}
			wg.Wait()
			if n := bad.Load(); n != 0 {
				t.Fatalf("%d inconsistent cross-partition reads", n)
			}
		})
	}
}

// TestAdvanceClockPartitionLocal mirrors TestAdvanceClockStress for the
// partition-local time base: a large jump applied to every counter must
// leave transactions working and the ceiling reflecting the jump.
func TestAdvanceClockPartitionLocal(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	_, bases := plTestSetup(t, e, 2, 2, 7)
	e.AdvanceClock(1 << 40)
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	th.Run(func(tx *Tx) error {
		tx.Store(bases[0], tx.Load(bases[0])+1)
		tx.Store(bases[1], tx.Load(bases[1])+1)
		return nil
	})
	th.Run(func(tx *Tx) error {
		if got := tx.Load(bases[0]) + tx.Load(bases[1]); got != 16 {
			t.Errorf("sum = %d, want 16", got)
		}
		return nil
	})
	if e.Clock() < 1<<40 {
		t.Fatalf("ceiling = %d", e.Clock())
	}
}
