package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memory"
)

// poolCounter allocates a one-word counter for the pool tests.
func poolCounter(t *testing.T, e *Engine) memory.Addr {
	t.Helper()
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var a memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.SiteID(0), 1)
		tx.Store(a, 0)
		return nil
	})
	return a
}

// TestPooledRunBasic checks a single borrow/run/return round trip and
// that the Thread goes back into the pool.
func TestPooledRunBasic(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	a := poolCounter(t, e)
	if err := e.RunPooled(func(tx *Tx) error {
		tx.Store(a, tx.Load(a)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ps := e.PoolStats()
	if ps.Size != 1 || ps.Idle != 1 {
		t.Fatalf("pool after one Run: %+v, want Size=1 Idle=1", ps)
	}
}

// TestPooledRunReclaimsWarmSlot: sequential Runs from one goroutine must
// re-claim the same Thread through the P-local hint, not grow the pool.
func TestPooledRunReclaimsWarmSlot(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	a := poolCounter(t, e)
	const n = 200
	for i := 0; i < n; i++ {
		if err := e.RunPooled(func(tx *Tx) error {
			tx.Store(a, tx.Load(a)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ps := e.PoolStats()
	if ps.Size != 1 {
		t.Fatalf("sequential Runs grew the pool to %d Threads", ps.Size)
	}
	// The first borrow necessarily misses (nothing cached yet); all
	// others must lift the warm slot straight out of the victim cache.
	if ps.Misses > n/2 {
		t.Fatalf("%d/%d borrows missed the victim cache", ps.Misses, n)
	}
}

// TestPooledRunTorture is the admission-control acceptance test: 1000
// concurrent goroutines complete through the 64-slot pool under
// GOMAXPROCS=2, with no ErrNoSlots-style failure and nothing lost.
func TestPooledRunTorture(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := newTestEngine(t, DefaultPartConfig())
	a := poolCounter(t, e)
	const goroutines, perG = 1000, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := e.RunPooled(func(tx *Tx) error {
					tx.Store(a, tx.Load(a)+1)
					return nil
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var got uint64
	if err := e.RunPooled(func(tx *Tx) error { got = tx.Load(a); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	ps := e.PoolStats()
	if ps.Size > MaxThreads {
		t.Fatalf("pool grew past the slot space: %+v", ps)
	}
	if ps.Idle != ps.Size {
		t.Fatalf("drained pool should be fully idle: %+v", ps)
	}
}

// TestPooledRunTortureMixedModes is the -race torture variant: update,
// read-only and snapshot transactions interleaved through the pool while
// goroutines churn.
func TestPooledRunTortureMixedModes(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.HistCap = 256
	e := newTestEngine(t, cfg)
	a := poolCounter(t, e)
	goroutines := 120
	if testing.Short() {
		goroutines = 40
	}
	var wg sync.WaitGroup
	var roSum, snapSum atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var err error
				switch (g + i) % 3 {
				case 0:
					err = e.RunPooled(func(tx *Tx) error {
						tx.Store(a, tx.Load(a)+1)
						return nil
					})
				case 1:
					err = e.RunPooled(func(tx *Tx) error {
						roSum.Add(tx.Load(a))
						return nil
					}, ReadOnly())
				default:
					err = e.RunPooled(func(tx *Tx) error {
						snapSum.Add(tx.Load(a))
						return nil
					}, Snapshot())
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPooledRunHandsOffToWaiter drives the pool into saturation with all
// slots but one held, proving waiters are served by direct handoff rather
// than failing.
func TestPooledRunHandsOffToWaiter(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	a := poolCounter(t, e)
	// Hold all slots but one, so every concurrent Run beyond the first
	// must park.
	held := make([]*Thread, 0, MaxThreads-1)
	for i := 0; i < MaxThreads-1; i++ {
		held = append(held, e.BorrowThread())
	}
	defer func() {
		for _, th := range held {
			e.ReturnThread(th)
		}
	}()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := e.RunPooled(func(tx *Tx) error {
					tx.Store(a, tx.Load(a)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ps := e.PoolStats(); ps.Size != MaxThreads {
		t.Fatalf("pool size = %d, want %d", ps.Size, MaxThreads)
	}
	var got uint64
	held[0].Run(func(tx *Tx) error { got = tx.Load(a); return nil })
	if got != goroutines*25 {
		t.Fatalf("counter = %d, want %d", got, goroutines*25)
	}
}

// TestPoolNoGoroutineLeak: the pool spawns no service goroutines, and a
// full borrow/park/return cycle leaves the goroutine count where it
// started once the borrowers exit.
func TestPoolNoGoroutineLeak(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	a := poolCounter(t, e)
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 200; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.RunPooled(func(tx *Tx) error {
				tx.Store(a, tx.Load(a)+1)
				return nil
			})
		}()
	}
	wg.Wait()
	// A borrower that has called wg.Done is still counted until it
	// exits; on a loaded host that can take a while. Poll until the
	// count is back or the deadline passes, so only a goroutine that
	// really stays fails the test.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d after pool drain", before, after)
	}
	if ps := e.PoolStats(); ps.Idle != ps.Size {
		t.Fatalf("pool not fully drained: %+v", ps)
	}
}
