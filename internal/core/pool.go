package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
)

// This file implements the engine's Thread slot pool: the machinery that
// makes transactions goroutine-native. Any goroutine may call
// Engine.RunPooled (the facade's Runtime.Run); it transparently borrows
// one of the MaxThreads reader-bitmap slots for the duration of the call
// and returns it on completion, so callers never manage Thread lifetime
// and arbitrary goroutine churn is safe.
//
// The borrow/return path is lock-free in steady state:
//
//   - claimCache is a tiny engine-owned victim cache of idle slots (the
//     sync.Pool idea — cache the last-used slot for the next borrower —
//     but with the entry itself holding the claim). A return parks its
//     slot in an empty entry with one CAS; the next borrow lifts it out
//     with one CAS and owns the Thread directly, touching nothing else —
//     a hot goroutine keeps getting the same Thread, so its allocator
//     magazines, transaction indexes and write-set filter stay warm
//     across calls. Unlike tokens in a sync.Pool, cached claims live in
//     an Engine field, so a GC can never drop one and strand its slot.
//     The cache is not a redundant second free list: with it removed, so
//     that every borrow takes the bitmap's lowest free bit, stmbench
//     snapshot-audit read p50 88.8 → 98.4 µs and 11.0 k → 10.0 k ops/s
//     in 4 of 4 runs (2-vCPU host, go1.24.0).
//   - poolFree is a 64-bit bitmap with one bit per slot (set = idle
//     pooled Thread), the overflow level behind the cache. A borrow
//     claims a specific bit with CAS; a return sets it back with an
//     atomic OR.
//   - Threads are created lazily, one registry slot at a time under the
//     registry lock, only when cache and bitmap are empty, and are never
//     destroyed: a slot, once created, belongs to the pool for the
//     engine's lifetime.
//
// When every slot is busy a borrower parks on a FIFO waiter queue and a
// returning Thread is handed to the oldest waiter directly — admission
// control in place of the old ErrNoSlots failure.

// claimCacheSize is the number of victim-cache entries: enough that a
// few concurrently returning goroutines don't spill to the bitmap, small
// enough that a cold borrow's scan is a handful of loads.
const claimCacheSize = 4

// BorrowThread claims a pooled Thread, creating one if the pool has room
// to grow, and parking FIFO behind earlier borrowers when all slots are
// busy. It never fails; pair it with ReturnThread.
//
// Most callers want RunPooled instead; the pair is exported for tests
// and for callers that amortize one borrow over several transactions.
func (e *Engine) BorrowThread() *Thread {
	// Fast path: lift a recently returned slot out of the victim cache.
	// The warm path does no accounting — misses are counted below, on
	// the cold path, so PoolStats can still report the warm fraction.
	if th := e.cacheClaim(); th != nil {
		return th
	}
	e.poolMisses.Add(1)
	if th := e.claimAnyFree(); th != nil {
		return th
	}
	if th := e.growPool(); th != nil {
		return th
	}
	return e.waitForThread()
}

// ReturnThread gives a borrowed Thread back to the pool: into the victim
// cache (spilling to the free-slot bitmap when the cache is full), then
// wakes the oldest parked borrower if any. The caller must not use th
// afterwards.
//
// The no-waiter fast path takes no lock: one CAS to park the slot, one
// waiter-count load. The publish-then-check order pairs with
// waitForThread's enqueue-then-reclaim (both sequentially consistent):
// either this return sees the waiter's count and wakes it, or the
// waiter's re-claim sees this return's slot — a wakeup cannot be lost.
func (e *Engine) ReturnThread(th *Thread) {
	// Epoch hygiene: a returned slot is outside any transaction, so its
	// published reclamation stamp must be idle. finish() already cleared it
	// on every exit path; this defensive clear guarantees a parked pooled
	// slot can never strand a stale stamp and stall the horizon for the
	// engine's whole lifetime (one store on a slot only we own).
	e.epochs.Clear(th.slot)
	if !e.cachePut(th.slot) {
		e.poolFree.Or(uint64(1) << uint(th.slot))
	}
	if e.waiterCount.Load() != 0 {
		e.wakeWaiter()
	}
}

// cachePut parks an idle slot in an empty victim-cache entry; false
// means the cache is full and the slot must go to the bitmap. Entries
// store slot+1 so the zero value means empty.
func (e *Engine) cachePut(slot int) bool {
	for i := range e.claimCache {
		if e.claimCache[i].CompareAndSwap(0, uint32(slot+1)) {
			return true
		}
	}
	return false
}

// cacheClaim lifts a slot out of the victim cache, returning its Thread;
// a successful CAS transfers the claim the entry was holding.
func (e *Engine) cacheClaim() *Thread {
	for i := range e.claimCache {
		if v := e.claimCache[i].Load(); v != 0 && e.claimCache[i].CompareAndSwap(v, 0) {
			return e.threads[v-1].Load()
		}
	}
	return nil
}

// claimIdle claims any idle pooled Thread: cache first, then bitmap.
func (e *Engine) claimIdle() *Thread {
	if th := e.cacheClaim(); th != nil {
		return th
	}
	return e.claimAnyFree()
}

// wakeWaiter hands freshly freed slots to parked borrowers, oldest
// first. A miss on the bitmap means a third party snatched the slot; its
// own return will find the still-parked waiter and retry the wake.
func (e *Engine) wakeWaiter() {
	e.waitMu.Lock()
	defer e.waitMu.Unlock()
	for len(e.waiters) > 0 {
		th := e.claimIdle()
		if th == nil {
			return
		}
		ch := e.waiters[0]
		e.waiters = e.waiters[1:]
		e.waiterCount.Add(-1)
		e.poolHandoffs.Add(1)
		ch <- th // buffered: never blocks
	}
}

// RunPooled runs fn as a transaction on a Thread borrowed from the slot
// pool, in the mode selected by opts (see Run). It is the goroutine-
// native entrypoint: safe to call from any goroutine, with admission
// control (FIFO waiting) when all slots are busy.
func (e *Engine) RunPooled(fn func(*Tx) error, opts ...TxOpt) error {
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	return th.Run(fn, opts...)
}

// claimAnyFree claims the lowest free pooled slot from the bitmap, or
// nil if none.
//
// This deliberately uses a load+CAS loop, NOT the value-returning
// atomic.Uint64.And: go1.24.0's And intrinsic miscompiles here (the
// expanded CAS loop clobbers the register holding e, so the following
// e.threads[slot] load dereferences the bitmap value — SIGSEGV when the
// pool drains to empty).
func (e *Engine) claimAnyFree() *Thread {
	for {
		m := e.poolFree.Load()
		if m == 0 {
			return nil
		}
		slot := bits.TrailingZeros64(m)
		if e.poolFree.CompareAndSwap(m, m&^(uint64(1)<<uint(slot))) {
			return e.threads[slot].Load()
		}
	}
}

// growPool creates the Thread of the next unused registry slot (claimed
// by the caller), or returns nil when all MaxThreads slots exist.
func (e *Engine) growPool() *Thread {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := int(e.poolSize.Load())
	if slot == MaxThreads {
		return nil
	}
	th := &Thread{
		eng:   e,
		slot:  slot,
		alloc: memory.NewAllocator(e.arena),
		rng:   uint64(slot)*0x9E3779B97F4A7C15 + 0x1234567,
	}
	st := make([]PartThreadStats, len(e.topo.Load().parts))
	th.stats.Store(&st)
	th.tx.init(e, th)
	e.threads[slot].Store(th)
	e.poolSize.Add(1)
	return th
}

// waitForThread parks the borrower on the FIFO waiter queue until a
// return hands it a Thread.
func (e *Engine) waitForThread() *Thread {
	e.poolWaits.Add(1)
	ch := make(chan *Thread, 1)
	e.waitMu.Lock()
	e.waiters = append(e.waiters, ch)
	e.waiterCount.Add(1)
	e.waitMu.Unlock()
	// Lost-wakeup guard: a return whose waiter-count check raced our
	// enqueue has already parked its slot in the cache or bitmap —
	// re-claim so that slot cannot sit idle while we sleep (see
	// ReturnThread).
	if th := e.claimIdle(); th != nil {
		if e.cancelWaiter(ch) {
			return th
		}
		// A wake popped us concurrently, so a handoff is inbound:
		// recycle the double-claim and take the handoff.
		e.ReturnThread(th)
		return <-ch
	}
	return <-ch
}

// cancelWaiter removes ch from the waiter queue; false means a wake
// already popped it (and sent on it).
func (e *Engine) cancelWaiter(ch chan *Thread) bool {
	e.waitMu.Lock()
	defer e.waitMu.Unlock()
	for i, w := range e.waiters {
		if w == ch {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			e.waiterCount.Add(-1)
			return true
		}
	}
	return false
}

// PoolStats is a momentary reading of the slot pool.
type PoolStats struct {
	// Size is the number of Threads created so far (they are never
	// destroyed; at most MaxThreads).
	Size int
	// Idle is the number of pooled Threads currently idle (victim cache
	// plus free bitmap).
	Idle int
	// Misses counts borrows NOT served by the victim cache (counted on
	// the cold path so the warm path stays accounting-free); borrows
	// minus Misses is the warm fraction.
	Misses uint64
	// Handoffs counts returns delivered directly to a parked borrower.
	Handoffs uint64
	// Waits counts borrows that parked on the waiter queue.
	Waits uint64
}

// PoolStats returns pool counters (monotonic except Idle).
func (e *Engine) PoolStats() PoolStats {
	idle := bits.OnesCount64(e.poolFree.Load())
	for i := range e.claimCache {
		if e.claimCache[i].Load() != 0 {
			idle++
		}
	}
	return PoolStats{
		Size:     int(e.poolSize.Load()),
		Idle:     idle,
		Misses:   e.poolMisses.Load(),
		Handoffs: e.poolHandoffs.Load(),
		Waits:    e.poolWaits.Load(),
	}
}

// poolState bundles the engine's pool fields (embedded in Engine).
type poolState struct {
	// claimCache holds idle slots as slot+1 (0 = empty entry); a CAS out
	// of an entry transfers the claim (see cachePut/cacheClaim).
	claimCache [claimCacheSize]atomic.Uint32
	// poolFree is the free-slot bitmap: bit i set means the pooled Thread
	// in registry slot i is idle and claimable by CAS.
	poolFree atomic.Uint64

	waitMu  sync.Mutex
	waiters []chan *Thread
	// waiterCount mirrors len(waiters) so the return fast path can skip
	// waitMu entirely when nobody is parked.
	waiterCount atomic.Int32

	poolSize     atomic.Int32
	poolMisses   atomic.Uint64
	poolHandoffs atomic.Uint64
	poolWaits    atomic.Uint64
}
