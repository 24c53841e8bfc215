package core

import (
	"sync/atomic"

	"repro/internal/memory"
)

// orec is an ownership record: one entry of a partition's lock array.
//
// The lock word encodes, TinySTM-style:
//
//	unlocked: version<<1        (version = commit timestamp, minted by the
//	                             engine's commit clock, of the last commit
//	                             that wrote a word mapping here)
//	locked:   ownerSlot<<1 | 1  (ownerSlot = thread slot of the writer)
//
// The lock array is dense, as in TinySTM: an orec is its lock word alone,
// so eight consecutive orecs share a cache line and a table of 1<<LockBits
// entries is 8<<LockBits bytes — 512 KiB per partition at the default
// LockBits 16, 8 MiB at the tuner's MaxLockBits 20. Visible-reader
// bitmaps live in a parallel array (orecTable.readers), one word per such
// cache line of lock words.
type orec struct {
	lock atomic.Uint64
}

const lockedBit uint64 = 1

// readerStripe is how many consecutive orecs share one visible-reader
// bitmap word: one 64-byte cache line of lock words.
const readerStripe = 8

func isLocked(l uint64) bool { return l&lockedBit != 0 }

// lockOwner returns the thread slot encoded in a locked lock word.
func lockOwner(l uint64) int { return int(l >> 1) }

// lockWordFor encodes a locked lock word owned by slot.
func lockWordFor(slot int) uint64 { return uint64(slot)<<1 | lockedBit }

// versionOf returns the timestamp encoded in an unlocked lock word.
func versionOf(l uint64) uint64 { return l >> 1 }

// versionWord encodes an unlocked lock word carrying version ts.
func versionWord(ts uint64) uint64 { return ts << 1 }

// orecTable is one partition's lock array. Tables are immutable once
// published: every reconfiguration swaps in a whole new table during
// quiescence, so a table is always built for its partition's LockBits,
// GranShift and read mode.
type orecTable struct {
	orecs []orec
	// readers[i] is the visible-reader bitmap of the readerStripe orecs
	// from i*readerStripe on: bit s set means the thread in slot s holds a
	// visible read on at least one of them. A stripe is one cache line of
	// lock words, so a scan registers (one locked Or) once per eight orecs,
	// and the bitmaps take 64 KiB at LockBits 16. The price is false
	// reader conflicts: a writer to any orec of the stripe waits for,
	// yields to or (WriterKillsReaders) kills its readers. Only a
	// VisibleReads partition's table has them; otherwise nil.
	readers   []atomic.Uint64
	mask      uint64
	granShift uint
}

func newOrecTable(lockBits, granShift uint, visible bool) *orecTable {
	n := uint64(1) << lockBits
	t := &orecTable{orecs: make([]orec, n), mask: n - 1, granShift: granShift}
	if visible {
		t.readers = make([]atomic.Uint64, max(n/readerStripe, 1))
	}
	return t
}

// of maps a word address to its ownership record.
func (t *orecTable) of(addr memory.Addr) *orec {
	return &t.orecs[t.indexOf(addr)]
}

// indexOf returns the orec index for addr: of and readersOf index by it,
// and LoadWords' sweep derives an object's whole orec span from it.
func (t *orecTable) indexOf(addr memory.Addr) uint64 {
	return (uint64(addr) >> t.granShift) & t.mask
}

// readersOf returns the visible-reader bitmap of addr's orec's stripe.
func (t *orecTable) readersOf(addr memory.Addr) *atomic.Uint64 {
	return &t.readers[t.indexOf(addr)/readerStripe]
}
