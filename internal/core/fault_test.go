package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/memory"
)

// TestKillStorm floods a worker with kill requests while it runs
// transactions: every kill must either hit between transactions (ignored)
// or abort exactly one attempt; the final counter must equal the number of
// Runs done and no locks or reader bits may leak. A kill only counts when
// it lands inside an attempt, which on a loaded host can take a while, so
// the worker keeps going past its minimum until one has (or a deadline
// passes).
func TestKillStorm(t *testing.T) {
	for _, read := range []ReadMode{InvisibleReads, VisibleReads} {
		t.Run(read.String(), func(t *testing.T) {
			cfg := DefaultPartConfig()
			cfg.Read = read
			e := newTestEngine(t, cfg)
			e.SetYieldEveryOps(4) // let the assassin interleave on one CPU
			victim := e.BorrowThread()
			var a memory.Addr
			victim.Run(func(tx *Tx) error {
				a = tx.Alloc(memory.DefaultSite, 1)
				tx.Store(a, 0)
				return nil
			})

			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() { // the assassin: frequent but not saturating
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						victim.kill()
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
			const minRuns, batch = 5000, 500
			killed := func() uint64 { return e.StatsSnapshot(GlobalPartition).Aborts[AbortKilled] }
			deadline := time.Now().Add(30 * time.Second)
			runs := 0
			for runs < minRuns || killed() == 0 && time.Now().Before(deadline) {
				for range batch {
					victim.Run(func(tx *Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
				}
				runs += batch
			}
			close(stop)
			wg.Wait()
			victim.Run(func(tx *Tx) error {
				if got := tx.Load(a); got != uint64(runs) {
					t.Errorf("counter = %d after %d Runs", got, runs)
				}
				return nil
			})
			assertCleanOrecs(t, e)
			if killed() == 0 {
				t.Errorf("kill storm produced no killed aborts in %d Runs", runs)
			}
		})
	}
}

// assertCleanOrecs fails if any orec of any partition is locked or holds
// reader bits while the system is idle.
func assertCleanOrecs(t *testing.T, e *Engine) {
	t.Helper()
	for _, p := range e.Partitions() {
		ps := p.loadState()
		for i := range ps.table.orecs {
			if l := ps.table.orecs[i].lock.Load(); isLocked(l) {
				t.Fatalf("partition %d orec %d leaked lock %x", p.ID(), i, l)
			}
		}
		for i := range ps.table.readers {
			if r := ps.table.readers[i].Load(); r != 0 {
				t.Fatalf("partition %d reader word %d leaked bits %b", p.ID(), i, r)
			}
		}
	}
}

// TestReconfigStorm reconfigures the partition continuously while
// transactions with all access patterns run; correctness must hold and
// nothing may leak.
func TestReconfigStorm(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	e.SetYieldEveryOps(4)
	setup := e.BorrowThread()
	const slots = 64
	var base memory.Addr
	setup.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.DefaultSite, slots)
		for i := 0; i < slots; i++ {
			tx.Store(base+memory.Addr(i), 100)
		}
		return nil
	})
	e.ReturnThread(setup)

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			rng := seed
			for i := 0; i < 3000; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from := memory.Addr(rng % slots)
				to := memory.Addr((rng >> 16) % slots)
				th.Run(func(tx *Tx) error {
					v := tx.Load(base + from)
					if v == 0 {
						return nil
					}
					tx.Store(base+from, v-1)
					tx.Store(base+to, tx.Load(base+to)+1)
					return nil
				})
			}
		}(uint64(w)*7919 + 3)
	}

	cfgs := make([]PartConfig, 0, 8)
	for _, c := range allModeConfigs() {
		cfgs = append(cfgs, c)
	}
	done := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		i := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			cfg := cfgs[i%len(cfgs)]
			cfg.LockBits = uint(4 + i%6)
			if err := e.Reconfigure(GlobalPartition, cfg); err != nil {
				t.Errorf("Reconfigure: %v", err)
				return
			}
			i++
			time.Sleep(300 * time.Microsecond) // storm, but let workers run
		}
	}()
	wg.Wait()
	close(done)
	rwg.Wait()

	check := e.BorrowThread()
	defer e.ReturnThread(check)
	check.Run(func(tx *Tx) error {
		var sum uint64
		for i := 0; i < slots; i++ {
			sum += tx.Load(base + memory.Addr(i))
		}
		if sum != slots*100 {
			t.Errorf("sum = %d, want %d", sum, slots*100)
		}
		return nil
	})
	assertCleanOrecs(t, e)
}

// TestAllocAbortRecycles verifies that objects allocated in an aborted
// attempt are recycled (the next allocation of the same size reuses the
// address).
func TestAllocAbortRecycles(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	var firstAttempt memory.Addr
	attempt := 0
	th.Run(func(tx *Tx) error {
		attempt++
		a := tx.Alloc(memory.DefaultSite, 5)
		if attempt == 1 {
			firstAttempt = a
			tx.Abort() // discard; allocation must return to the free list
		}
		if attempt == 2 && a != firstAttempt {
			t.Errorf("retry allocated %d, want recycled %d", a, firstAttempt)
		}
		tx.Store(a, 1)
		return nil
	})
	if attempt != 2 {
		t.Fatalf("attempts = %d", attempt)
	}
}

// TestFreeRecyclesAfterCommit verifies transactional frees feed the free
// list only on commit — and, since frees retire into limbo, only after a
// reclaim pass sees the horizon move past the freeing commit.
func TestFreeRecyclesAfterCommit(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	var a memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 7)
		tx.Store(a, 1)
		return nil
	})
	// Free in an aborted tx: must NOT recycle.
	_ = th.Run(func(tx *Tx) error {
		tx.Free(a, 7)
		return ErrExplicitAbort
	})
	var b memory.Addr
	th.Run(func(tx *Tx) error { b = tx.Alloc(memory.DefaultSite, 7); return nil })
	if b == a {
		t.Fatal("free from aborted transaction took effect")
	}
	// Free in a committed tx: must recycle once reclaimed. No transaction
	// is live here, so the horizon is idle and one drain suffices.
	th.Run(func(tx *Tx) error { tx.Free(a, 7); return nil })
	th.alloc.Reclaim(e.ReclaimStats().Horizon)
	var c memory.Addr
	th.Run(func(tx *Tx) error { c = tx.Alloc(memory.DefaultSite, 7); return nil })
	if c != a {
		t.Fatalf("committed free not recycled: got %d, want %d", c, a)
	}
}

// TestSequentialSemanticsProperty checks, with random operation tapes,
// that a transactional execution equals a plain map model when run
// single-threaded — the STM must be transparent without concurrency.
func TestSequentialSemanticsProperty(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, cfg)
			th := e.BorrowThread()
			const slots = 32
			var base memory.Addr
			th.Run(func(tx *Tx) error {
				base = tx.Alloc(memory.DefaultSite, slots)
				return nil
			})
			model := make(map[memory.Addr]uint64)
			f := func(ops []uint32) bool {
				th.Run(func(tx *Tx) error {
					for _, op := range ops {
						slot := memory.Addr(op % slots)
						if op&(1<<20) != 0 {
							v := uint64(op >> 21)
							tx.Store(base+slot, v)
							model[slot] = v
						} else if tx.Load(base+slot) != model[slot] {
							t.Error("read diverged from model")
						}
					}
					return nil
				})
				return !t.Failed()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotMonotonic checks that a transaction's snapshot never
// decreases across extensions.
func TestSnapshotMonotonic(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	other := e.BorrowThread()
	var a, b memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		b = tx.Alloc(memory.DefaultSite, 1)
		return nil
	})
	th.Run(func(tx *Tx) error {
		s0 := tx.Snapshot()
		tx.Load(a)
		// A foreign commit advances the clock; the next read forces an
		// extension.
		other.Run(func(tx2 *Tx) error { tx2.Store(b, 1); return nil })
		tx.Load(b)
		if tx.Snapshot() < s0 {
			t.Errorf("snapshot moved backwards: %d -> %d", s0, tx.Snapshot())
		}
		return nil
	})
}
