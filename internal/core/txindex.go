package core

import (
	"math/bits"
	"unsafe"
)

// txIndex is the one membership structure behind the transaction's write
// set and lock set (the read set is an append log and needs none): it maps
// a uint64 key (a heap address or an orec's pointer bits) to a position in
// the slice.
//
// While the set is small the table is not engaged (live() is false): the
// caller scans its slice inline (see wsEntry/lkFind in tx.go), and the
// one-word first-touch filter (hint/mark) lets the common query — the
// first touch of a key, which will NOT be found — skip even that. Once the set outgrows the scan every access is one find-or-insert
// probe: one hash, one 16-byte slot holding key, generation stamp and
// position, so a probe touches one cache line whether it finds the key,
// misses, or inserts it.
//
// The table holds nothing the caller's slice does not: whenever it is full
// (which includes "not engaged yet") the caller grows it and puts its
// entries back in. Growth therefore needs no rehash, and the geometry is per
// attempt: reset disengages the table but keeps its memory, so a thread
// that once wrote 30 000 words does not spread every later 100-write
// transaction's probes over the same megabyte.
//
// Slots are generation-stamped: every grow starts a new generation, which
// empties the table in O(1), so the memory is reused across every attempt
// of a thread's lifetime without clearing — except once when the 32-bit
// stamp wraps, so a slot written 2^32 generations ago never aliases the
// current one. The table stores no pointers: orec keys are pointer bits
// used as hash identity, kept alive by the entries of the slice the index
// points into (orec tables are only replaced under quiescence).
type txIndex struct {
	// slots is the current geometry; its capacity is the retained memory.
	slots []idxSlot
	// word is the small regime's first-touch filter: bit hash(k)>>58 is set
	// for every key marked since reset. A clear bit proves the key was never
	// marked; a set bit proves nothing.
	word  uint64
	mask  uint64 // len(slots)-1
	shift uint   // 64 - log2(len(slots)); hash uses the high multiply bits
	// gen is the current generation; a slot is live iff its stamp matches.
	gen uint32
	n   int // live slots in the current generation
}

// idxSlot is one table entry, packed so a probe reads a single 16-byte
// record.
type idxSlot struct {
	key uint64
	gen uint32
	pos int32
}

// hashMul is the 64-bit Fibonacci multiplier; the high bits of key*hashMul
// are well mixed even for sequential addresses and pointer-aligned keys.
const hashMul = 0x9E3779B97F4A7C15

const txIndexInitialSize = 64

// orecKey converts an orec pointer into an index key. Go's collector does
// not move heap objects, so the pointer bits are a stable identity.
func orecKey(o *orec) uint64 { return uint64(uintptr(unsafe.Pointer(o))) }

// reset forgets every entry and the filter word in O(1), and disengages
// the table (keeping its memory).
func (t *txIndex) reset() {
	t.word, t.n, t.slots = 0, 0, t.slots[:0]
}

// live reports whether the table is engaged (holds at least one key).
func (t *txIndex) live() bool { return t.n != 0 }

// hint reports whether k might have been marked since reset.
func (t *txIndex) hint(k uint64) bool { return t.word&(1<<((k*hashMul)>>58)) != 0 }

// mark records k in the filter word.
func (t *txIndex) mark(k uint64) { t.word |= 1 << ((k * hashMul) >> 58) }

// full reports whether the table must grow before the next probe; a table
// that is not engaged is full.
func (t *txIndex) full() bool { return t.n >= len(t.slots)/4*3 }

// grow installs an empty table sized to be at most a quarter full with need
// keys in it; the caller puts its entries back in. Filling up at three
// quarters, a growing set quadruples its table each time, so all its
// refills together re-insert a third of its final size.
func (t *txIndex) grow(need int) {
	size := txIndexInitialSize
	for size/4 < need {
		size *= 2
	}
	if size <= cap(t.slots) {
		t.slots = t.slots[:size]
	} else {
		t.slots = make([]idxSlot, size)
	}
	if t.gen++; t.gen == 0 {
		// The stamp wrapped: slots written under any earlier generation
		// would alias from here on. Clear them (stamp 0 is never live).
		clear(t.slots[:cap(t.slots)])
		t.gen = 1
	}
	t.n = 0
	t.mask = uint64(size) - 1
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// get returns the position stored for k, or -1.
func (t *txIndex) get(k uint64) int {
	if t.n == 0 {
		return -1
	}
	for i := (k * hashMul) >> t.shift; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return -1
		}
		if s.key == k {
			return int(s.pos)
		}
	}
}

// probe is the find-or-insert step: it returns k's slot and whether k was
// already present. An absent key is inserted by the same probe sequence
// that missed it, with pos left for the caller to fill in — which is also
// how a caller repoints an existing key. The table must not be full.
func (t *txIndex) probe(k uint64) (s *idxSlot, found bool) {
	for i := (k * hashMul) >> t.shift; ; i = (i + 1) & t.mask {
		s = &t.slots[i]
		if s.gen != t.gen {
			s.key, s.gen = k, t.gen
			t.n++
			return s, false
		}
		if s.key == k {
			return s, true
		}
	}
}

// put inserts or overwrites the position for k. The table must not be full.
func (t *txIndex) put(k uint64, pos int) {
	s, _ := t.probe(k)
	s.pos = int32(pos)
}
