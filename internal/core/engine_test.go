package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/memory"
)

// newTestEngine builds an engine over a fresh arena with the global
// partition configured by cfg.
func newTestEngine(t testing.TB, cfg PartConfig) *Engine {
	t.Helper()
	arena, err := memory.NewArena(memory.Config{CapacityWords: 1 << 20, BlockShift: 10})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(arena, cfg)
}

// allModeConfigs enumerates the meaningful (read, acquire, write) mode
// combinations; the protocol tests run under each.
func allModeConfigs() map[string]PartConfig {
	out := make(map[string]PartConfig)
	for _, read := range []ReadMode{InvisibleReads, VisibleReads} {
		for _, mode := range []struct {
			acq AcquireMode
			wr  WriteMode
		}{
			{EncounterTime, WriteBack},
			{EncounterTime, WriteThrough},
			{CommitTime, WriteBack},
		} {
			cfg := DefaultPartConfig()
			cfg.Read = read
			cfg.Acquire = mode.acq
			cfg.Write = mode.wr
			cfg.LockBits = 10
			name := fmt.Sprintf("%s-%s-%s", read, mode.acq, mode.wr)
			out[name] = cfg
		}
	}
	return out
}

func TestLoadStoreRoundTrip(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, cfg)
			th := e.BorrowThread()
			var a memory.Addr
			th.Run(func(tx *Tx) error {
				a = tx.Alloc(memory.DefaultSite, 4)
				tx.Store(a, 11)
				tx.Store(a+1, 22)
				if got := tx.Load(a); got != 11 {
					t.Errorf("read-after-write = %d, want 11", got)
				}
				tx.Store(a, 33) // overwrite in same tx
				return nil
			})
			th.Run(func(tx *Tx) error {
				if got := tx.Load(a); got != 33 {
					t.Errorf("Load(a) = %d, want 33", got)
				}
				if got := tx.Load(a + 1); got != 22 {
					t.Errorf("Load(a+1) = %d, want 22", got)
				}
				return nil
			})
		})
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, cfg)
			th := e.BorrowThread()
			var a memory.Addr
			th.Run(func(tx *Tx) error {
				a = tx.Alloc(memory.DefaultSite, 1)
				tx.Store(a, 100)
				return nil
			})
			err := th.Run(func(tx *Tx) error {
				tx.Store(a, 999)
				return fmt.Errorf("boom")
			})
			if err == nil || err.Error() != "boom" {
				t.Fatalf("Run = %v, want boom", err)
			}
			th.Run(func(tx *Tx) error {
				if got := tx.Load(a); got != 100 {
					t.Errorf("aborted write leaked: %d", got)
				}
				return nil
			})
		})
	}
}

// TestUserPanicRollsBackAndPropagates pins what a panic in fn leaves
// behind, on a borrowed Thread and through RunPooled: the panic reaches the
// caller, the write is undone, the thread is reusable, and no quiescence
// (here Reconfigure) waits on the panicked slot.
func TestUserPanicRollsBackAndPropagates(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.Write = WriteThrough
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			e := newTestEngine(t, cfg)
			run := e.RunPooled
			if !pooled {
				run = e.BorrowThread().Run
			}
			var a memory.Addr
			run(func(tx *Tx) error {
				a = tx.Alloc(memory.DefaultSite, 1)
				tx.Store(a, 5)
				return nil
			})
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Fatal("user panic swallowed")
					}
				}()
				run(func(tx *Tx) error {
					tx.Store(a, 6)
					panic("user bug")
				})
			}()
			done := make(chan error, 1)
			go func() { done <- e.Reconfigure(GlobalPartition, cfg) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Reconfigure: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Reconfigure still blocked 2s after a recovered panic: the slot stayed active")
			}
			run(func(tx *Tx) error {
				if got := tx.Load(a); got != 5 {
					t.Errorf("write-through undo failed: %d", got)
				}
				return nil
			})
			// The engine must still be usable (locks released).
			run(func(tx *Tx) error { tx.Store(a, 7); return nil })
		})
	}
}

func TestReadOnlyUpgrade(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	var a memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 1)
		return nil
	})
	attempts := 0
	th.Run(func(tx *Tx) error {
		attempts++
		tx.Store(a, tx.Load(a)+1) // forces an upgrade on the first attempt
		return nil
	}, ReadOnly())
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (RO attempt + upgraded attempt)", attempts)
	}
	th.Run(func(tx *Tx) error {
		if got := tx.Load(a); got != 2 {
			t.Errorf("value = %d, want 2", got)
		}
		return nil
	})
}

func TestConcurrentCounter(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
	)
	for name, cfg := range allModeConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, cfg)
			setup := e.BorrowThread()
			var a memory.Addr
			setup.Run(func(tx *Tx) error {
				a = tx.Alloc(memory.DefaultSite, 1)
				tx.Store(a, 0)
				return nil
			})
			e.ReturnThread(setup)

			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := e.BorrowThread()
					defer e.ReturnThread(th)
					for i := 0; i < perG; i++ {
						th.Run(func(tx *Tx) error {
							tx.Store(a, tx.Load(a)+1)
							return nil
						})
					}
				}()
			}
			wg.Wait()

			check := e.BorrowThread()
			check.Run(func(tx *Tx) error {
				if got := tx.Load(a); got != goroutines*perG {
					t.Errorf("counter = %d, want %d", got, goroutines*perG)
				}
				return nil
			})
		})
	}
}

// TestSnapshotConsistency keeps the sum of an array constant under
// concurrent transfers and checks that read-only transactions never see a
// broken sum — the fundamental opacity/serializability property.
func TestSnapshotConsistency(t *testing.T) {
	const (
		slots    = 32
		initial  = 1000
		writers  = 4
		readers  = 3
		transfer = 3000
	)
	for name, cfg := range allModeConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, cfg)
			setup := e.BorrowThread()
			var base memory.Addr
			setup.Run(func(tx *Tx) error {
				base = tx.Alloc(memory.DefaultSite, slots)
				for i := 0; i < slots; i++ {
					tx.Store(base+memory.Addr(i), initial)
				}
				return nil
			})
			e.ReturnThread(setup)

			var writerWG, readerWG sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				writerWG.Add(1)
				go func(seed uint64) {
					defer writerWG.Done()
					th := e.BorrowThread()
					defer e.ReturnThread(th)
					rng := seed*2654435761 + 1
					for i := 0; i < transfer; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						from := memory.Addr(rng % slots)
						to := memory.Addr((rng >> 8) % slots)
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
				}(uint64(w) + 1)
			}
			errs := make(chan error, readers)
			for r := 0; r < readers; r++ {
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					th := e.BorrowThread()
					defer e.ReturnThread(th)
					for {
						select {
						case <-stop:
							return
						default:
						}
						var sum uint64
						th.Run(func(tx *Tx) error {
							sum = 0
							for i := 0; i < slots; i++ {
								sum += tx.Load(base + memory.Addr(i))
							}
							return nil
						}, ReadOnly())
						if sum != slots*initial {
							select {
							case errs <- fmt.Errorf("inconsistent sum %d, want %d", sum, slots*initial):
							default:
							}
							return
						}
					}
				}()
			}
			writerWG.Wait()
			close(stop)
			readerWG.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
		})
	}
}
