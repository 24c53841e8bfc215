package core

import (
	"math"
	"testing"

	"repro/internal/memory"
)

// idxSet is the caller's side of the txIndex contract in miniature: a
// slice of keys whose positions the index maps, rebuilt into the table
// whenever it is full — as logRead, wsEntry and lkFind do.
type idxSet struct {
	idx   txIndex
	keys  []uint64
	grows int
}

func (s *idxSet) reset() {
	s.idx.reset()
	s.keys = s.keys[:0]
}

// add is find-or-insert: it returns k's position and whether it was there.
func (s *idxSet) add(k uint64) (int, bool) {
	if s.idx.full() {
		s.grows++
		s.idx.grow(len(s.keys) + 1)
		for i, k := range s.keys {
			s.idx.put(k, i)
		}
	}
	sl, found := s.idx.probe(k)
	if !found {
		sl.pos = int32(len(s.keys))
		s.keys = append(s.keys, k)
	}
	return int(sl.pos), found
}

func TestTxIndexBasics(t *testing.T) {
	var s idxSet
	s.reset()
	if got := s.idx.get(42); got != -1 {
		t.Fatalf("empty get = %d, want -1", got)
	}
	// Insert well past several growth rounds; sequential keys stress the
	// hash's distribution of aligned addresses.
	const n = 10_000
	for i := 0; i < n; i++ {
		if pos, found := s.add(uint64(i) * 8); found || pos != i {
			t.Fatalf("add(%d) = (%d, %v), want (%d, false)", i*8, pos, found, i)
		}
	}
	for i := 0; i < n; i++ {
		if got := s.idx.get(uint64(i) * 8); got != i {
			t.Fatalf("get(%d) = %d, want %d", i*8, got, i)
		}
		if pos, found := s.add(uint64(i) * 8); !found || pos != i {
			t.Fatalf("repeat add(%d) = (%d, %v), want (%d, true)", i*8, pos, found, i)
		}
	}
	if got := s.idx.get(n * 8); got != -1 {
		t.Fatalf("missing key = %d, want -1", got)
	}
	if s.idx.n != n {
		t.Fatalf("%d live slots after %d inserts and %d finds", s.idx.n, n, n)
	}
	// Overwrite semantics.
	s.idx.put(0, 77)
	if got := s.idx.get(0); got != 77 {
		t.Fatalf("overwrite get = %d, want 77", got)
	}
	// O(1) reset forgets everything, the filter word included, and
	// disengages the table without giving its memory back.
	s.idx.mark(0)
	memory := cap(s.idx.slots)
	s.reset()
	if s.idx.live() || s.idx.hint(0) || !s.idx.full() || cap(s.idx.slots) != memory {
		t.Fatalf("after reset: live=%v hint=%v full=%v cap %d -> %d",
			s.idx.live(), s.idx.hint(0), s.idx.full(), memory, cap(s.idx.slots))
	}
	for _, k := range []uint64{0, 8, 16, (n - 1) * 8} {
		if got := s.idx.get(k); got != -1 {
			t.Fatalf("get(%d) after reset = %d, want -1", k, got)
		}
	}
	// The table is reusable after reset, at a geometry sized to the new
	// set rather than to the largest one it ever held.
	if pos, found := s.add(123); found || pos != 0 {
		t.Fatalf("post-reset add = (%d, %v), want (0, false)", pos, found)
	}
	if got := s.idx.get(123); got != 0 {
		t.Fatalf("post-reset get = %d, want 0", got)
	}
	if got := s.idx.get(124); got != -1 {
		t.Fatalf("post-reset missing key = %d, want -1", got)
	}
	if len(s.idx.slots) != txIndexInitialSize {
		t.Fatalf("post-reset geometry = %d slots, want %d", len(s.idx.slots), txIndexInitialSize)
	}
}

// TestTxIndexManyGenerations checks that generation stamping never
// resurrects an entry: every reset-and-regrow reuses the same memory, and a
// key of an earlier generation must read as absent — and insert afresh — in
// every later one.
func TestTxIndexManyGenerations(t *testing.T) {
	var s idxSet
	for gen := 0; gen < 200; gen++ {
		s.reset()
		// Generations alternate between two overlapping key ranges, so a
		// stale slot is always in the way of a key that must miss.
		lo := uint64(gen%2) * 8
		for i := uint64(0); i < 16; i++ {
			if got := s.idx.get(lo + i); got != -1 {
				t.Fatalf("gen %d: stale hit for %d = %d", gen, lo+i, got)
			}
			if pos, found := s.add(lo + i); found || pos != int(i) {
				t.Fatalf("gen %d: add(%d) = (%d, %v), want (%d, false)", gen, lo+i, pos, found, i)
			}
		}
		for i := uint64(0); i < 16; i++ {
			if got := s.idx.get(lo + i); got != int(i) {
				t.Fatalf("gen %d: get(%d) = %d, want %d", gen, lo+i, got, i)
			}
		}
	}
	if s.grows != 200 {
		t.Fatalf("%d grows over 200 generations, want one each", s.grows)
	}
}

// TestTxIndexGrowthPreservesPositions fills the table through several
// doublings, checking after each one that every key still maps to the
// position it was given.
func TestTxIndexGrowthPreservesPositions(t *testing.T) {
	var s idxSet
	s.reset()
	grows := 0
	for i := 0; i < 5000; i++ {
		s.add(uint64(i) << 6)
		if s.grows != grows {
			grows = s.grows
			for j := 0; j <= i; j++ {
				if got := s.idx.get(uint64(j) << 6); got != j {
					t.Fatalf("after growth to %d slots: get(key %d) = %d, want %d", len(s.idx.slots), j, got, j)
				}
			}
		}
	}
	if grows < 3 || len(s.idx.slots) < 8*txIndexInitialSize {
		t.Fatalf("table only reached %d slots in %d grows", len(s.idx.slots), grows)
	}
}

// TestTxIndexGenerationWrap drives the 32-bit stamp over its wrap: a slot
// written under some generation must not read as live when the generation
// counter comes round to it again — the wrap clears the retained memory
// instead, including the part outside the current geometry.
func TestTxIndexGenerationWrap(t *testing.T) {
	var s idxSet
	s.reset()
	for k := uint64(1); k <= 100; k++ {
		s.add(k << 4)
	}
	gen, size := s.idx.gen, len(s.idx.slots) // where the 100 entries live
	if gen < 2 {
		t.Fatalf("precondition: 100 keys took %d grows", gen)
	}
	s.reset()
	// As after 2^32-1-gen further generations: the same fill now wraps the
	// stamp and ends on the generation of the old entries, in their memory.
	s.idx.gen = math.MaxUint32
	for k := uint64(1); k <= 100; k++ {
		s.add(k<<4 | 1)
	}
	if s.idx.gen != gen || len(s.idx.slots) != size {
		t.Fatalf("after the wrap: generation %d in %d slots, want %d in %d", s.idx.gen, len(s.idx.slots), gen, size)
	}
	for k := uint64(1); k <= 100; k++ {
		if got := s.idx.get(k << 4); got != -1 {
			t.Fatalf("entry %#x of the previous generation %d aliased after the wrap: get = %d", k<<4, gen, got)
		}
		if got := s.idx.get(k<<4 | 1); got != int(k-1) {
			t.Fatalf("post-wrap entry %#x = %d, want %d", k<<4|1, got, k-1)
		}
	}
}

// TestRepeatReadAtDifferentVersion covers the branch the protocol keeps
// unreachable (a repeat read whose version moved cannot pass the snapshot
// check) but validation must still handle exactly: with two versions of
// one orec logged, the orec can match at most one of them, so validation
// fails. The reads run in an update Run that writes nothing (a ReadOnly()
// first attempt logs no reads).
func TestRepeatReadAtDifferentVersion(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.GranShift = 0
	e := newTestEngine(t, cfg)
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var base memory.Addr
	th.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.DefaultSite, 3)
		for i := 0; i < 3; i++ {
			tx.Store(base+memory.Addr(i), 1)
		}
		return nil
	})
	th.Run(func(tx *Tx) error {
		for i := 0; i < 3; i++ {
			tx.Load(base + memory.Addr(i))
		}
		n := len(tx.rs)
		if !tx.validate() {
			t.Fatal("fresh read set does not validate")
		}
		ps := e.Partition(GlobalPartition).loadState()
		o := ps.table.of(base)
		tx.logRead(ps, o, versionOf(o.lock.Load())+1)
		if tx.validate() {
			t.Fatal("validation passed with two versions of one orec recorded")
		}
		tx.rs = tx.rs[:n] // drop the fabricated entry so the commit is clean
		return nil
	})
}

// TestFilterWriteSetExact drives more addresses than the one-word filter
// has bits: repeated stores to a large footprint keep one write-set entry
// per address, and read-after-write returns the buffered (not in-memory)
// value for every address — which fails if the filter word or the index
// ever reports a false negative.
func TestFilterWriteSetExact(t *testing.T) {
	t.Run("wb", func(t *testing.T) {
		e := newTestEngine(t, DefaultPartConfig())
		th := e.BorrowThread()
		defer e.ReturnThread(th)
		const words = 300
		var base memory.Addr
		th.Run(func(tx *Tx) error {
			base = tx.Alloc(memory.DefaultSite, words)
			for i := 0; i < words; i++ {
				tx.Store(base+memory.Addr(i), 0)
			}
			return nil
		})
		th.Run(func(tx *Tx) error {
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < words; i++ {
					tx.Store(base+memory.Addr(i), uint64(1000+pass*words+i))
				}
			}
			if got := len(tx.ws); got != words {
				t.Fatalf("write set = %d entries, want %d (one per address)", got, words)
			}
			for i := 0; i < words; i++ {
				want := uint64(1000 + words + i) // last pass's value
				if got := tx.Load(base + memory.Addr(i)); got != want {
					t.Fatalf("read-after-write at %d = %d, want %d", i, got, want)
				}
			}
			return nil
		})
		// Committed state must reflect the buffered values.
		th.Run(func(tx *Tx) error {
			for i := 0; i < words; i++ {
				want := uint64(1000 + words + i)
				if got := tx.Load(base + memory.Addr(i)); got != want {
					t.Fatalf("committed value at %d = %d, want %d", i, got, want)
				}
			}
			return nil
		}, ReadOnly())
	})
}
