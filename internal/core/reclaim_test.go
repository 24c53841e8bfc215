package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memory"
)

// TestEpochStampHygienePooled verifies the epoch table's slot discipline
// across the pooled borrow/return cycle: a slot publishes a stamp only
// while a transaction is live on it, and a returned Thread can never
// strand a stale stamp that would pin the horizon forever.
func TestEpochStampHygienePooled(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	slot := th.slot
	if got := e.epochs.Load(slot); got != HorizonIdle {
		t.Fatalf("borrowed idle slot publishes stamp %d, want HorizonIdle", got)
	}
	var inside uint64
	th.Run(func(tx *Tx) error {
		a := tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 1)
		inside = e.epochs.Load(slot)
		return nil
	})
	if inside == HorizonIdle {
		t.Fatal("live transaction did not publish a stamp")
	}
	if got := e.epochs.Load(slot); got != HorizonIdle {
		t.Fatalf("slot still publishes %d after commit, want HorizonIdle", got)
	}
	e.ReturnThread(th)
	if got := e.epochs.Load(slot); got != HorizonIdle {
		t.Fatalf("slot publishes %d after return, want HorizonIdle", got)
	}
	if h := e.ReclaimStats().Horizon; h != HorizonIdle {
		t.Fatalf("horizon %d with no live transaction, want HorizonIdle", h)
	}
}

// TestReclaimChurnTorture churns alloc/free under concurrent snapshot
// scans. Every node's words are stored equal, so any use-after-reclaim —
// a node recycled while a snapshot reader could still reach it — shows up
// as a mixed-word read (or as a -race report). After quiescing, one
// ReclaimNow must account for every retired word: retired == reclaimed,
// limbo empty.
func TestReclaimChurnTorture(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.HistCap = 1 << 14
	e := newTestEngine(t, cfg)

	const (
		cells   = 16
		nodeLen = 8
		writers = 4
		readers = 2
		rounds  = 300
	)
	// Each cell holds a pointer to a nodeLen-word node whose words all
	// carry the same value.
	var table memory.Addr
	if err := e.RunPooled(func(tx *Tx) error {
		table = tx.Alloc(memory.DefaultSite, cells)
		for i := 0; i < cells; i++ {
			n := tx.Alloc(memory.DefaultSite, nodeLen)
			for w := 0; w < nodeLen; w++ {
				tx.Store(n+memory.Addr(w), 1)
			}
			tx.StoreAddr(table+memory.Addr(i), n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var writersWG, readersWG sync.WaitGroup
	errs := make(chan string, writers+readers)
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(seed uint64) {
			defer writersWG.Done()
			rng := seed*2654435761 + 1
			for r := 0; r < rounds; r++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				cell := table + memory.Addr(rng%cells)
				err := e.RunPooled(func(tx *Tx) error {
					old := tx.LoadAddr(cell)
					v := tx.Load(old)
					for w := 1; w < nodeLen; w++ {
						if got := tx.Load(old + memory.Addr(w)); got != v {
							errs <- "writer read mixed node words (use-after-reclaim?)"
							return nil
						}
					}
					n := tx.Alloc(memory.DefaultSite, nodeLen)
					for w := 0; w < nodeLen; w++ {
						tx.Store(n+memory.Addr(w), v+1)
					}
					tx.StoreAddr(cell, n)
					tx.Free(old, nodeLen)
					return nil
				})
				if err != nil {
					errs <- err.Error()
					return
				}
			}
		}(uint64(g))
	}
	for g := 0; g < readers; g++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for !stop.Load() {
				err := e.RunPooled(func(tx *Tx) error {
					for i := 0; i < cells; i++ {
						n := tx.LoadAddr(table + memory.Addr(i))
						v := tx.Load(n)
						for w := 1; w < nodeLen; w++ {
							if got := tx.Load(n + memory.Addr(w)); got != v {
								errs <- "snapshot scan read mixed node words (use-after-reclaim?)"
								return nil
							}
						}
					}
					return nil
				}, Snapshot())
				if err != nil {
					errs <- err.Error()
					return
				}
			}
		}()
	}
	writersWG.Wait()
	stop.Store(true)
	readersWG.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	// Quiesce: nothing is live, so one sweep must claim everything.
	reclaimed := e.ReclaimNow()
	rs := e.ReclaimStats()
	if rs.RetiredWords != rs.ReclaimedWords {
		t.Fatalf("after quiesce reclaim (%d words): retired %d != reclaimed %d (limbo %d)",
			reclaimed, rs.RetiredWords, rs.ReclaimedWords, rs.LimboWords)
	}
	if rs.LimboWords != 0 {
		t.Fatalf("limbo not empty after quiesce reclaim: %d words", rs.LimboWords)
	}
	if rs.RetiredWords == 0 {
		t.Fatal("churn retired no words: the retire path is not wired")
	}
}

// TestChurnArenaFlat is the steady-state leak check: rounds of alloc/free
// churn — small, large, and block-spanning objects — must not grow the
// arena's block consumption once the free lists are primed. Before the
// large-object fix, every Free of an n >= maxSmallSize object silently
// leaked it; this test pins the regression.
func TestChurnArenaFlat(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	defer e.ReturnThread(th)

	sizes := []int{1, 7, 64, 100, 1500} // small, boundary, large, block-spanning
	const perSize = 8
	round := func() {
		var addrs []memory.Addr
		th.Run(func(tx *Tx) error {
			addrs = addrs[:0]
			for _, n := range sizes {
				for i := 0; i < perSize; i++ {
					a := tx.Alloc(memory.DefaultSite, n)
					tx.Store(a, uint64(n))
					addrs = append(addrs, a)
				}
			}
			return nil
		})
		th.Run(func(tx *Tx) error {
			for i, a := range addrs {
				tx.Free(a, sizes[i/perSize])
			}
			return nil
		})
		// Horizon is idle here (no live transaction): drain the limbo so
		// the next round reuses this round's memory.
		th.alloc.Reclaim(e.ReclaimStats().Horizon)
	}

	round() // prime the free lists
	baseline := e.arena.BlocksInUse()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		round()
	}
	if got := e.arena.BlocksInUse(); got != baseline {
		t.Fatalf("arena grew under steady-state churn: %d blocks after warmup, %d after %d rounds",
			baseline, got, rounds)
	}
	rs := e.ReclaimStats()
	if rs.RetiredWords != rs.ReclaimedWords || rs.LimboWords != 0 {
		t.Fatalf("quiesced churn left limbo: retired %d, reclaimed %d, limbo %d",
			rs.RetiredWords, rs.ReclaimedWords, rs.LimboWords)
	}
}
