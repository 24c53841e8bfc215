package core

import (
	"testing"

	"repro/internal/memory"
)

// TestLoadStoreWordsMatchesPerWord checks the multi-word primitives are
// observationally identical to per-word loops across every mode
// combination, including read-after-write interleavings and coarse
// conflict-detection granularity (words sharing an orec).
func TestLoadStoreWordsMatchesPerWord(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		for _, gran := range []uint{0, 3} {
			cfg := cfg
			cfg.GranShift = gran
			t.Run(name+"/gran="+string(rune('0'+gran)), func(t *testing.T) {
				e := newTestEngine(t, cfg)
				th := e.MustAttachThread()
				defer e.DetachThread(th)
				const n = 24
				var base memory.Addr
				th.Run(func(tx *Tx) error {
					base = tx.Alloc(memory.DefaultSite, n)
					vals := make([]uint64, n)
					for i := range vals {
						vals[i] = uint64(100 + i)
					}
					tx.StoreWords(base, vals)
					return nil
				})
				th.Run(func(tx *Tx) error {
					// Committed state readable per word.
					for i := 0; i < n; i++ {
						if got := tx.Load(base + memory.Addr(i)); got != uint64(100+i) {
							t.Fatalf("word %d = %d, want %d", i, got, 100+i)
						}
					}
					// Mix per-word stores with a multi-word read: buffered
					// values must win inside the range.
					tx.Store(base+5, 9999)
					tx.Store(base+11, 8888)
					dst := make([]uint64, n)
					tx.LoadWords(base, dst)
					for i := 0; i < n; i++ {
						want := uint64(100 + i)
						switch i {
						case 5:
							want = 9999
						case 11:
							want = 8888
						}
						if dst[i] != want {
							t.Fatalf("LoadWords[%d] = %d, want %d", i, dst[i], want)
						}
					}
					// Multi-word store then per-word read-after-write.
					tx.StoreWords(base+8, []uint64{1, 2, 3})
					for i, want := range []uint64{1, 2, 3} {
						if got := tx.Load(base + 8 + memory.Addr(i)); got != want {
							t.Fatalf("RAW after StoreWords[%d] = %d, want %d", i, got, want)
						}
					}
					return nil
				})
				// LoadRange sees the committed state, and early exit stops.
				th.Run(func(tx *Tx) error {
					seen := 0
					tx.LoadRange(base, n, func(i int, v uint64) bool {
						seen++
						return i < 3
					})
					if seen != 4 { // i=3 returns false: words 0..3 visited
						t.Fatalf("LoadRange visited %d words after early exit, want 4", seen)
					}
					return nil
				}, ReadOnly())
			})
		}
	}
}

// TestWordsAcrossBlocks drives the primitives over an object spanning
// multiple heap blocks (the chunking boundary where the partition lookup
// must be redone).
func TestWordsAcrossBlocks(t *testing.T) {
	arena, err := memory.NewArena(memory.Config{CapacityWords: 1 << 12, BlockShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(arena, DefaultPartConfig())
	th := e.MustAttachThread()
	defer e.DetachThread(th)
	const n = 40 // 3 blocks of 16 words
	var base memory.Addr
	th.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.DefaultSite, n)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i) * 3
		}
		tx.StoreWords(base, vals)
		return nil
	})
	th.Run(func(tx *Tx) error {
		dst := make([]uint64, n)
		tx.LoadWords(base, dst)
		for i := range dst {
			if dst[i] != uint64(i)*3 {
				t.Fatalf("word %d = %d, want %d", i, dst[i], i*3)
			}
		}
		return nil
	}, ReadOnly())
}

// TestLoadWordsReadSetGrouping pins the amortization contract: a
// multi-word read of words sharing one orec (GranShift > 0) contributes
// one read-set entry per orec, not per word.
func TestLoadWordsReadSetGrouping(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.GranShift = 3 // 8 words per orec
	e := newTestEngine(t, cfg)
	th := e.MustAttachThread()
	defer e.DetachThread(th)
	const n = 64
	var base memory.Addr
	th.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.DefaultSite, n)
		for i := 0; i < n; i++ {
			tx.Store(base+memory.Addr(i), uint64(i))
		}
		return nil
	})
	ps := e.Partition(GlobalPartition).loadState()
	distinct := make(map[*orec]bool)
	for i := 0; i < n; i++ {
		distinct[ps.table.of(base+memory.Addr(i))] = true
	}
	th.Run(func(tx *Tx) error {
		dst := make([]uint64, n)
		tx.LoadWords(base, dst)
		if got := tx.ReadSetLen(); got != len(distinct) {
			t.Fatalf("read set = %d entries for %d distinct orecs", got, len(distinct))
		}
		return nil
	}, ReadOnly())
}

// TestSnapshotWordsGroupedReconstruction checks the snapshot-mode range
// read against the grouped store records: a snapshot reader that pinned
// its snapshot before a whole-object overwrite reconstructs the object —
// with the grouped fast path (one index probe for the whole object)
// actually taken, visible in the store's RangeFastHits.
func TestSnapshotWordsGroupedReconstruction(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.HistCap = 1 << 10
	e := newTestEngine(t, cfg)
	th := e.MustAttachThread()
	defer e.DetachThread(th)
	const n = 8
	var base memory.Addr
	th.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.DefaultSite, n)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = 1
		}
		tx.StoreWords(base, vals)
		return nil
	})

	// Pin a snapshot, then overwrite the whole object from a second
	// thread mid-transaction.
	th2 := e.MustAttachThread()
	defer e.DetachThread(th2)
	var got [n]uint64
	var hits uint64
	th.Run(func(tx *Tx) error {
		_ = tx.Load(base) // pin the snapshot at the first access
		done := make(chan struct{})
		go func() {
			defer close(done)
			th2.Run(func(tx2 *Tx) error {
				newVals := make([]uint64, n)
				for i := range newVals {
					newVals[i] = 2
				}
				tx2.StoreWords(base, newVals)
				return nil
			})
		}()
		<-done
		tx.LoadWords(base, got[:])
		hits = tx.SnapshotHits()
		return nil
	}, Snapshot())
	for i, v := range got {
		if v != 1 {
			t.Fatalf("snapshot word %d = %d, want the pre-overwrite 1", i, v)
		}
	}
	if hits == 0 {
		t.Fatal("no reads reconstructed from the store")
	}
	st := e.SnapshotHistory(GlobalPartition)
	if st.RangeReads == 0 {
		t.Fatal("range lookup not used")
	}
	if st.RangeFastHits == 0 {
		t.Fatalf("grouped fast path not taken: %+v", st)
	}
	// One probe served the whole tail: strictly fewer probes than words.
	if st.Probes >= uint64(n) {
		t.Fatalf("object reconstruction paid %d index probes for %d words", st.Probes, n)
	}
}
