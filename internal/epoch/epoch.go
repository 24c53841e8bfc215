// Package epoch implements the published-reader epoch table behind the
// engine's memory-reclamation horizon.
//
// The paper's STM derives all consistency from a scalable time base; this
// package extends the same idea to storage reclamation. Every transaction,
// at begin, publishes a stamp — a commit-clock sample taken before the
// transaction bases any read on the clock — into a slot of a fixed
// 64-entry table (one slot per engine thread slot, matching the
// reader-bitmap bound), and clears it when the attempt finishes, commit or
// abort alike. The table's minimum over live slots is the global horizon:
// a lower bound on "how old can a live reader be", expressed on the commit
// timeline.
//
// The reclamation contract:
//
//   - A freeing commit retires an object with a stamp R sampled from the
//     commit clock AFTER the commit published its write version (so the
//     unlink that made the object unreachable is at or below R).
//   - A transaction publishes its stamp B (a clock sample) BEFORE
//     sampling any snapshot, so every snapshot it ever reads at is taken
//     after B was visible to horizon sweeps.
//   - An object retired at R may be recycled once Horizon() > R: every
//     live reader then has B > R, which (the clock is monotone) means it
//     sampled B after the freeing commit completed — so each of its
//     snapshots postdates the unlink and can never reach the object, not
//     even through multi-version reconstruction, which only rebuilds
//     values as of the (later) snapshot.
//
// Slots are cache-line padded: a slot is written only by its owning thread
// (twice per transaction) and read by horizon sweeps, so publication never
// bounces another thread's hot line.
package epoch

import "sync/atomic"

// Slots is the table size; it equals the engine's thread-slot bound
// (core.MaxThreads), so a thread's slot index addresses its epoch slot.
const Slots = 64

// Idle is the stamp of a slot with no live transaction. It is the maximum
// uint64, so the minimum sweep needs no liveness special-casing: an idle
// slot can never be the minimum unless every slot is idle — and a real
// stamp (a clock reading) never reaches it. Horizon() == Idle therefore
// means "no live reader: everything retired is reclaimable".
const Idle = ^uint64(0)

// slot is one thread's published stamp, padded to a cache line.
type slot struct {
	stamp atomic.Uint64
	_     [56]byte
}

// Table is the 64-slot epoch table. The zero value is NOT ready to use
// (all-zero stamps would pin the horizon at 0 forever); create with New.
type Table struct {
	slots [Slots]slot
}

// New returns a table with every slot idle.
func New() *Table {
	t := &Table{}
	for i := range t.slots {
		t.slots[i].stamp.Store(Idle)
	}
	return t
}

// Publish records stamp as slot i's live-transaction stamp. Only the
// owning thread may call it, and it must do so before the transaction
// samples any snapshot (see the package comment's ordering contract).
func (t *Table) Publish(i int, stamp uint64) {
	t.slots[i].stamp.Store(stamp)
}

// Clear marks slot i idle. Called by the owning thread when its attempt
// finishes, and defensively by pool return so a parked slot can never
// strand a stale stamp and stall the horizon.
func (t *Table) Clear(i int) {
	t.slots[i].stamp.Store(Idle)
}

// Load returns slot i's current stamp (Idle when no transaction is live).
func (t *Table) Load(i int) uint64 {
	return t.slots[i].stamp.Load()
}

// Horizon sweeps the table once and returns the minimum published stamp —
// Idle when no transaction is live anywhere. Memory retired at stamp R is
// reclaimable exactly when Horizon() > R.
func (t *Table) Horizon() uint64 {
	min := uint64(Idle)
	for i := range t.slots {
		if s := t.slots[i].stamp.Load(); s < min {
			min = s
		}
	}
	return min
}
