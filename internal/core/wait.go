package core

import (
	"runtime"
	"time"
)

// Waiting discipline. Every bounded wait loop in the transaction
// protocol — the snapshot reader waiting out a lock holder, a writer
// draining visible readers, the spinning contention managers — advances
// through stall, which escalates in three phases keyed to spinBudget:
//
//  1. spins <= spinBudget: stay on-CPU. A short jittered pause
//     (spinWait) keeps re-probes off the contended cache line without
//     entering the scheduler, so waits shorter than a lock hold resolve
//     in nanoseconds.
//  2. spinBudget < spins <= parkFactor*spinBudget: yield. On
//     oversubscribed hosts (goroutines >> GOMAXPROCS >> slots) the lock
//     owner may simply not be running; runtime.Gosched every iteration
//     gives it the processor instead of burning the core.
//  3. spins > parkFactor*spinBudget: park. A hold this long means the
//     owner is descheduled or wedged; escalating time.Sleep takes this
//     waiter off the run queue entirely so pathological holds cannot
//     starve the scheduler.
//
// Loops whose contention manager aborts at spinBudget never leave phase
// 1; the unbounded waits (snapshot lock waits, reader draining, the
// parkFactor*spinBudget karma/timestamp patience) are the ones the yield
// and park phases exist for. Every stall counts one WaitCycle; phases 2
// and 3 additionally count Yields and Parks, so PartStats readers see
// exactly how often waits escalate into the scheduler.
//
// Wait TIME is attributed alongside the counts (SpinNs/YieldNs/ParkNs):
// stall samples the monotonic clock once per iteration and charges the
// interval since the previous iteration — pause plus the caller's re-probe
// — to the phase that pause belonged to. The first iteration of a wait
// loop starts the clock and the final pause of a loop goes unattributed
// (the loop exits without calling stall again), so the breakdown
// undercounts each wait episode by one pause; in exchange the measurement
// costs one clock read per iteration and covers probe time, not just pause
// time.
//
// Counts and time are booked once, in plain words, on the waitAcct of the
// touchRec of the partition whose orec is being waited on, and flushed into
// PartThreadStats when the attempt finishes (flushWait). An on-CPU
// iteration executes no atomic instruction; one that escalates into the
// scheduler flushes first — it is about to spend far longer than the adds
// cost, the wait may be unbounded, and the escalation is the signal a
// monitor must see while the waiter is still stuck.

// waitAcct is one attempt's wait accounting for one touched partition
// (touchRec.wait).
type waitAcct struct {
	cycles, yields, parks   uint64
	spinNs, yieldNs, parkNs uint64
}

// flushWait moves the partition wait account w into the partition's
// counter block st.
func flushWait(st *PartThreadStats, w *waitAcct) {
	if w.cycles == 0 {
		return
	}
	st.WaitCycles.Add(w.cycles)
	addNonZero(&st.Yields, w.yields)
	addNonZero(&st.Parks, w.parks)
	addNonZero(&st.SpinNs, w.spinNs)
	addNonZero(&st.YieldNs, w.yieldNs)
	addNonZero(&st.ParkNs, w.parkNs)
	*w = waitAcct{}
}

// stallEpoch anchors stall's clock: time.Since on a monotonic reading is a
// single monotonic-clock read, half the cost of time.Now.
var stallEpoch = time.Now()

// spinBudget bounds the contention managers' wait loops (iterations)
// and is the number of on-CPU iterations a wait spends before it yields.
const spinBudget = 128

// parkFactor is the multiple of spinBudget past which a waiter stops
// yielding and starts sleeping. It deliberately equals the patience
// bound of the waiting contention managers (parkFactor*spinBudget), so
// CM waits abort before ever sleeping.
const parkFactor = 8

// maxParkMicros caps one park at 100µs: long enough to take a wedged
// waiter off the CPU, short enough to notice a release promptly.
const maxParkMicros = 100

// stall advances one iteration of a bounded wait loop; spins is the
// 1-based iteration count and ti the partition's position in
// tx.touched.
func (tx *Tx) stall(spins, ti int) {
	w := &tx.touched[ti].wait
	w.cycles++
	now := time.Since(stallEpoch)
	if spins > 1 {
		// Charge the interval since the previous iteration to the phase of
		// that iteration's pause.
		d := uint64(now - tx.stallMark)
		switch prev := spins - 1; {
		case prev <= spinBudget:
			w.spinNs += d
		case prev <= parkFactor*spinBudget:
			w.yieldNs += d
		default:
			w.parkNs += d
		}
	}
	tx.stallMark = now
	if spins <= spinBudget {
		spinWait(tx.th.nextRand() & 15)
		return
	}
	st := &(*tx.th.stats.Load())[tx.touched[ti].p.id]
	if spins <= parkFactor*spinBudget {
		w.yields++
		flushWait(st, w)
		runtime.Gosched()
		return
	}
	w.parks++
	flushWait(st, w)
	over := spins - parkFactor*spinBudget
	if over > maxParkMicros {
		over = maxParkMicros
	}
	time.Sleep(time.Duration(over) * time.Microsecond)
}
