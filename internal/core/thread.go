package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/memory"
)

// MaxThreads is the number of Thread slots, and so the number of
// transactions that can run at once. The bound comes from the
// visible-reader bitmap: one bit per thread slot in a 64-bit word, exactly
// as in reader-bitmap STM designs.
const MaxThreads = 64

// cacheLine is the assumed coherence granule for the padding that keeps
// the Thread's cross-thread control words off the owner's hot state.
const cacheLine = 64

// Thread is a transaction context bound to one of the MaxThreads slots.
// Threads are created only by the engine's slot pool and live for the
// engine's lifetime: Engine.RunPooled (the facade's Runtime.Run) borrows
// one per call, and BorrowThread/ReturnThread lend one to a caller that
// runs several transactions through Thread.Run. A borrowed Thread must not
// be shared across goroutines. A panic in a transaction's fn rolls the
// transaction back and propagates to Run's caller; the Thread stays
// reusable.
//
// Layout: the owner-private fields come first; the control words that
// cross thread boundaries are split into two cache-line-padded groups so
// that (a) a contender's kill store never invalidates the line the owner
// writes, and (b) neither group shares a line with the owner-hot Tx state
// behind it.
type Thread struct {
	eng  *Engine
	slot int

	alloc *memory.Allocator

	// stats points to this thread's per-partition counter blocks. The
	// engine replaces the slice (under the registry lock, during quiescence)
	// when a plan install changes the partition count; monitor threads
	// (tuner, StatsSnapshot) read it concurrently with the owning thread's
	// increments, hence the atomic pointer. Counters of a replaced slice
	// are folded into the engine's retired aggregate so history survives
	// plan installs.
	stats atomic.Pointer[[]PartThreadStats]

	rng uint64 // xorshift state for stall and retry-backoff jitter
	cfg runCfg // Run's option scratch

	_ [cacheLine]byte
	// Owner-written, cross-thread-read: active gates quiescence and is
	// stored twice per attempt (enterGate/exitGate).
	active atomic.Uint32
	_      [cacheLine - 4]byte

	// killed is the one word other threads write (a writer draining the
	// visible readers of its stripe); polled at every transactional
	// operation and at commit. It gets a line of its own so a kill storm
	// against this thread does not bounce the owner-written line above.
	killed atomic.Uint32
	_      [cacheLine - 4]byte

	tx Tx // reusable transaction descriptor
}

// readerBit returns this thread's bit in visible-reader bitmaps.
func (th *Thread) readerBit() uint64 { return uint64(1) << uint(th.slot) }

// kill asks the thread to abort its current transaction attempt. Safe to
// call from any thread; the target polls the flag at its next STM
// operation or at commit.
func (th *Thread) kill() { th.killed.Store(1) }

// nextRand is a small xorshift64* generator for stall and backoff jitter.
func (th *Thread) nextRand() uint64 {
	x := th.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	th.rng = x
	return x * 0x2545F4914F6CDD1D
}

// enterGate marks the thread active, honoring the engine's quiescence
// gate: if a reconfiguration is pending, the thread parks until the gate
// reopens. The store-then-check order pairs with the gate-then-wait order
// in Engine.quiesce (sequentially consistent atomics).
func (th *Thread) enterGate() {
	for {
		th.active.Store(1)
		if th.eng.gate.Load() == 0 {
			return
		}
		th.active.Store(0)
		for th.eng.gate.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// exitGate marks the thread idle.
func (th *Thread) exitGate() { th.active.Store(0) }
