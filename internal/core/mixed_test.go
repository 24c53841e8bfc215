package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

// installFourConfigPlan builds an engine with four partitions covering the
// configuration space: invisible/WB (default), visible/WB, invisible/WT
// and CTL. Returns the engine and one allocation site per partition.
func installFourConfigPlan(t *testing.T) (*Engine, [4]memory.SiteID) {
	t.Helper()
	e := newTestEngine(t, DefaultPartConfig())
	sites := e.Arena().Sites()
	var s [4]memory.SiteID
	s[0] = sites.Register("m.invwb")
	s[1] = sites.Register("m.viswb")
	s[2] = sites.Register("m.invwt")
	s[3] = sites.Register("m.ctl")

	vis := DefaultPartConfig()
	vis.Read = VisibleReads
	wt := DefaultPartConfig()
	wt.Write = WriteThrough
	ctl := DefaultPartConfig()
	ctl.Acquire = CommitTime

	sitePart := make([]PartID, sites.Count())
	sitePart[s[0]] = 1
	sitePart[s[1]] = 2
	sitePart[s[2]] = 3
	sitePart[s[3]] = 4
	if err := e.InstallPlan(sitePart,
		[]string{"g", "invwb", "viswb", "invwt", "ctl"},
		[]PartConfig{DefaultPartConfig(), DefaultPartConfig(), vis, wt, ctl}); err != nil {
		t.Fatal(err)
	}
	return e, s
}

// TestFourConfigRingConservation runs ring transfers across four
// partitions with four different concurrency-control configurations in a
// single transaction, while read-only auditors check the cross-partition
// sum. This is the strongest mixed-mode property: one serializable
// timeline across heterogeneous protocols.
func TestFourConfigRingConservation(t *testing.T) {
	e, s := installFourConfigPlan(t)
	setup := e.BorrowThread()
	var cells [4]memory.Addr
	const perCell = 1000
	setup.Run(func(tx *Tx) error {
		for i, site := range s {
			cells[i] = tx.Alloc(site, 1)
			tx.Store(cells[i], perCell)
		}
		return nil
	})
	e.ReturnThread(setup)

	const workers, iters = 6, 1500
	var bad atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			for i := 0; i < iters; i++ {
				if id%3 == 2 {
					th.Run(func(tx *Tx) error {
						var sum uint64
						for _, c := range cells {
							sum += tx.Load(c)
						}
						if sum != 4*perCell {
							bad.Add(1)
						}
						return nil
					}, ReadOnly())
					continue
				}
				from := (id + i) % 4
				to := (from + 1) % 4
				th.Run(func(tx *Tx) error {
					v := tx.Load(cells[from])
					if v == 0 {
						return nil
					}
					tx.Store(cells[from], v-1)
					tx.Store(cells[to], tx.Load(cells[to])+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d auditors saw a broken four-partition sum", n)
	}
	check := e.BorrowThread()
	check.Run(func(tx *Tx) error {
		var sum uint64
		for _, c := range cells {
			sum += tx.Load(c)
		}
		if sum != 4*perCell {
			t.Fatalf("final sum = %d, want %d", sum, 4*perCell)
		}
		return nil
	})
}

// TestGranularityAliasingCorrectness uses a deliberately tiny, coarse orec
// table (4 orecs, 16 words per orec) so that distinct words constantly
// alias to the same orec. False conflicts may cost throughput but must
// never cost updates.
func TestGranularityAliasingCorrectness(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.LockBits = 2
	cfg.GranShift = 4
	e := newTestEngine(t, cfg)
	setup := e.BorrowThread()
	const slots = 64
	var base memory.Addr
	setup.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.DefaultSite, slots)
		for i := 0; i < slots; i++ {
			tx.Store(base+memory.Addr(i), 0)
		}
		return nil
	})
	e.ReturnThread(setup)

	const workers, perW = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			for i := 0; i < perW; i++ {
				slot := memory.Addr((id*perW + i) % slots)
				th.Run(func(tx *Tx) error {
					tx.Store(base+slot, tx.Load(base+slot)+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	check := e.BorrowThread()
	check.Run(func(tx *Tx) error {
		var sum uint64
		for i := 0; i < slots; i++ {
			sum += tx.Load(base + memory.Addr(i))
		}
		if sum != workers*perW {
			t.Fatalf("sum = %d, want %d (updates lost to aliasing)", sum, workers*perW)
		}
		return nil
	})
}

// TestCTLSymmetricOrders has workers updating the same pair of words in
// opposite program orders under commit-time locking. Address-ordered
// commit acquisition must prevent both deadlock and lost updates.
func TestCTLSymmetricOrders(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.Acquire = CommitTime
	e := newTestEngine(t, cfg)
	setup := e.BorrowThread()
	var a, b memory.Addr
	setup.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		b = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		tx.Store(b, 0)
		return nil
	})
	e.ReturnThread(setup)

	const workers, perW = 6, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			for i := 0; i < perW; i++ {
				if id%2 == 0 {
					th.Run(func(tx *Tx) error {
						tx.Store(a, tx.Load(a)+1)
						tx.Store(b, tx.Load(b)+1)
						return nil
					})
				} else {
					th.Run(func(tx *Tx) error {
						tx.Store(b, tx.Load(b)+1)
						tx.Store(a, tx.Load(a)+1)
						return nil
					})
				}
			}
		}(w)
	}
	wg.Wait()
	check := e.BorrowThread()
	check.Run(func(tx *Tx) error {
		va, vb := tx.Load(a), tx.Load(b)
		if va != workers*perW || vb != workers*perW {
			t.Fatalf("a=%d b=%d, want both %d", va, vb, workers*perW)
		}
		return nil
	})
}

// TestWriteThroughUndoVisibility verifies a write-through transaction that
// aborts restores pre-images before anyone can commit against them: a
// concurrent reader may never observe the doomed intermediate value.
func TestWriteThroughUndoVisibility(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.Write = WriteThrough
	e := newTestEngine(t, cfg)
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var a memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 7)
		return nil
	})
	attempts := 0
	err := th.Run(func(tx *Tx) error {
		attempts++
		tx.Store(a, 999) // written in place under lock
		return ErrExplicitAbort
	})
	if err == nil {
		t.Fatal("expected user error")
	}
	th.Run(func(tx *Tx) error {
		if got := tx.Load(a); got != 7 {
			t.Fatalf("pre-image not restored: %d", got)
		}
		return nil
	})
	if attempts != 1 {
		t.Fatalf("user-error abort retried: attempts=%d", attempts)
	}
}

// TestMixedVisibilityOpacity runs writers that update one word in a
// visible-reads partition and one in an invisible-reads partition
// atomically, with readers loading them in both orders; every reader must
// see the two words equal (single snapshot across modes).
func TestMixedVisibilityOpacity(t *testing.T) {
	e, s := installFourConfigPlan(t)
	setup := e.BorrowThread()
	var inv, vis memory.Addr
	setup.Run(func(tx *Tx) error {
		inv = tx.Alloc(s[0], 1) // invisible/WB partition
		vis = tx.Alloc(s[1], 1) // visible/WB partition
		tx.Store(inv, 0)
		tx.Store(vis, 0)
		return nil
	})
	e.ReturnThread(setup)

	stop := make(chan struct{})
	var writerWg, wg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		th := e.BorrowThread()
		defer e.ReturnThread(th)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			th.Run(func(tx *Tx) error {
				v := tx.Load(inv) + 1
				tx.Store(inv, v)
				tx.Store(vis, v)
				return nil
			})
		}
	}()

	var torn atomic.Uint64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(flip bool) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			for i := 0; i < 2000; i++ {
				th.Run(func(tx *Tx) error {
					var x, y uint64
					if flip {
						x, y = tx.Load(vis), tx.Load(inv)
					} else {
						x, y = tx.Load(inv), tx.Load(vis)
					}
					if x != y {
						torn.Add(1)
					}
					return nil
				})
			}
		}(w%2 == 0)
	}
	wg.Wait()
	close(stop)
	writerWg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d readers saw a torn mixed-visibility snapshot", n)
	}
}

// TestMixedModeSequentialEquivalence is the property test: any sequence of
// single-threaded transfers over the four heterogeneous partitions leaves
// exactly the balance a plain model computes.
func TestMixedModeSequentialEquivalence(t *testing.T) {
	e, s := installFourConfigPlan(t)
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var cells [4]memory.Addr
	th.Run(func(tx *Tx) error {
		for i, site := range s {
			cells[i] = tx.Alloc(site, 1)
			tx.Store(cells[i], 100)
		}
		return nil
	})
	model := [4]uint64{100, 100, 100, 100}

	f := func(moves []uint16) bool {
		for _, m := range moves {
			from := int(m) % 4
			to := int(m>>2) % 4
			amt := uint64(m>>4) % 8
			th.Run(func(tx *Tx) error {
				v := tx.Load(cells[from])
				if v < amt {
					return nil
				}
				tx.Store(cells[from], v-amt)
				tx.Store(cells[to], tx.Load(cells[to])+amt)
				return nil
			})
			if model[from] >= amt {
				model[from] -= amt
				model[to] += amt
			}
		}
		ok := true
		th.Run(func(tx *Tx) error {
			for i := range cells {
				if tx.Load(cells[i]) != model[i] {
					ok = false
				}
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
