package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// parkWriter starts a transaction that writes v to a (taking its orec lock
// at encounter time) and parks holding it until release is closed; held is
// closed once the lock is taken, done once the writer has committed and
// left the engine.
func parkWriter(e *Engine, a memory.Addr, v uint64, held, release, done chan struct{}) {
	go func() {
		defer close(done)
		th := e.MustAttachThread()
		defer e.DetachThread(th)
		first := true
		th.Run(func(tx *Tx) error {
			tx.Store(a, v)
			if first {
				first = false
				close(held)
				<-release
			}
			return nil
		})
	}()
}

// TestSweepFallbackLockedWord: an 8-word object whose word 5 is locked by
// a parked writer. The sweep must not serve word 5 from memory; the
// per-orec path does — in a Snapshot() Run word 5 is waited out and then
// reconstructed from the store (or, without a store, read after an
// extension), while words 0–4 and 6–7 come from memory; in a ReadOnly()
// Run the contention manager decides as before (CMSpin: abort on a locked
// read).
func TestSweepFallbackLockedWord(t *testing.T) {
	const n, locked = 8, 5
	setup := func(t *testing.T, cfg PartConfig) (*Engine, memory.Addr) {
		e := newTestEngine(t, cfg)
		th := e.MustAttachThread()
		defer e.DetachThread(th)
		var base memory.Addr
		th.Run(func(tx *Tx) error {
			base = tx.Alloc(memory.DefaultSite, n)
			tx.StoreWords(base, []uint64{10, 11, 12, 13, 14, 15, 16, 17})
			return nil
		})
		return e, base
	}
	snapshotCase := func(t *testing.T, histCap uint, want5, wantHits uint64) {
		cfg := DefaultPartConfig()
		cfg.HistCap = histCap
		e, base := setup(t, cfg)
		held, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		parkWriter(e, base+locked, 99, held, release, done)
		<-held
		var got [n]uint64
		var hits uint64
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			th := e.MustAttachThread()
			defer e.DetachThread(th)
			th.Run(func(tx *Tx) error {
				tx.LoadWords(base, got[:])
				hits = tx.SnapshotHits()
				return nil
			}, Snapshot())
		}()
		// The reader must be stuck on word 5: its wait escalates into
		// yields/parks, which are flushed while it waits.
		base0 := e.StatsSnapshot(GlobalPartition)
		deadline := time.Now().Add(10 * time.Second)
		for {
			cur := e.StatsSnapshot(GlobalPartition)
			if cur.Yields+cur.Parks > base0.Yields+base0.Parks {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("snapshot reader never waited on the locked word")
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case <-readerDone:
			t.Fatal("snapshot reader finished while word 5 was locked")
		default:
		}
		close(release)
		<-done
		<-readerDone
		want := [n]uint64{10, 11, 12, 13, 14, want5, 16, 17}
		if got != want {
			t.Fatalf("snapshot read %v, want %v", got, want)
		}
		if hits != wantHits {
			t.Fatalf("%d words reconstructed from the store, want %d", hits, wantHits)
		}
	}
	// Word 5's pre-image is reconstructed; the other seven are memory's.
	t.Run("snapshot/store", func(t *testing.T) { snapshotCase(t, 1<<10, 15, 1) })
	// No store: the reader extends past the writer's commit.
	t.Run("snapshot/no-store", func(t *testing.T) { snapshotCase(t, 0, 99, 0) })
	t.Run("readonly", func(t *testing.T) {
		e, base := setup(t, DefaultPartConfig())
		held, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		parkWriter(e, base+locked, 99, held, release, done)
		<-held
		th := e.MustAttachThread()
		defer e.DetachThread(th)
		var got [n]uint64
		err := th.Run(func(tx *Tx) error {
			tx.LoadWords(base, got[:])
			return nil
		}, ReadOnly(), MaxAttempts(1))
		close(release)
		<-done
		var mae *MaxAttemptsError
		if !errors.As(err, &mae) || mae.Cause != AbortLockedOnRead {
			t.Fatalf("err = %v, want a MaxAttemptsError with cause %s", err, AbortLockedOnRead)
		}
	})
}

// TestSweepTorture: two writers — whole-object transfers through
// LoadWords/StoreWords, and single-word ADD pairs through Load/Store —
// beside Snapshot() and ReadOnly() scanners that check the exact total in
// every scan. Objects are 20 words, so every object read crosses a sweep
// window.
func TestSweepTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	for _, gran := range []uint{0, 3} {
		t.Run("gran="+string(rune('0'+gran)), func(t *testing.T) {
			cfg := DefaultPartConfig()
			cfg.GranShift = gran
			cfg.HistCap = 1 << 14
			e := newTestEngine(t, cfg)
			e.SetYieldEveryOps(16)
			const objects, objWords, init = 32, 20, 1000
			objs := make([]memory.Addr, objects)
			setup := e.MustAttachThread()
			setup.Run(func(tx *Tx) error {
				vals := make([]uint64, objWords)
				for i := range vals {
					vals[i] = init
				}
				for i := range objs {
					objs[i] = tx.Alloc(memory.DefaultSite, objWords)
					tx.StoreWords(objs[i], vals)
				}
				return nil
			})
			e.DetachThread(setup)
			const total = objects * objWords * init

			var stop atomic.Bool
			var writers sync.WaitGroup
			writer := func(seed int64, step func(tx *Tx, rng *rand.Rand)) {
				defer writers.Done()
				th := e.MustAttachThread()
				defer e.DetachThread(th)
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					th.Run(func(tx *Tx) error { step(tx, rng); return nil })
				}
			}
			writers.Add(2)
			go writer(1, func(tx *Tx, rng *rand.Rand) { // whole-object transfer
				a, b := objs[rng.Intn(objects)], objs[rng.Intn(objects)]
				if a == b {
					return
				}
				var from, to [objWords]uint64
				tx.LoadWords(a, from[:])
				tx.LoadWords(b, to[:])
				k, d := rng.Intn(objWords), uint64(rng.Intn(5))
				if from[k] < d {
					return
				}
				from[k] -= d
				to[k] += d
				tx.StoreWords(a, from[:])
				tx.StoreWords(b, to[:])
			})
			go writer(2, func(tx *Tx, rng *rand.Rand) { // single-word ADDs
				a := objs[rng.Intn(objects)] + memory.Addr(rng.Intn(objWords))
				b := objs[rng.Intn(objects)] + memory.Addr(rng.Intn(objWords))
				d := uint64(rng.Intn(5))
				if va := tx.Load(a); va >= d {
					tx.Store(a, va-d)
					tx.Store(b, tx.Load(b)+d)
				}
			})

			var scanners sync.WaitGroup
			for _, opt := range []TxOpt{Snapshot(), ReadOnly()} {
				scanners.Add(1)
				go func(opt TxOpt) {
					defer scanners.Done()
					th := e.MustAttachThread()
					defer e.DetachThread(th)
					var words [objWords]uint64
					for scan := 0; scan < 150; scan++ {
						var sum uint64
						th.Run(func(tx *Tx) error {
							sum = 0
							for _, o := range objs {
								tx.LoadWords(o, words[:])
								for _, w := range words {
									sum += w
								}
							}
							return nil
						}, opt)
						if sum != total {
							t.Errorf("scan %d saw total %d, want %d", scan, sum, total)
							return
						}
					}
				}(opt)
			}
			scanners.Wait()
			stop.Store(true)
			writers.Wait()
		})
	}
}

// TestReadOnlyRangeAllocFree: a ReadOnly() LoadRange of 256 words — four
// LoadRange chunks of four sweep windows each — logs one read-set entry
// per word and allocates nothing once the attempt's scratch has grown.
func TestReadOnlyRangeAllocFree(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.MustAttachThread()
	defer e.DetachThread(th)
	const n = 256
	var base memory.Addr
	th.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.DefaultSite, n)
		for i := 0; i < n; i++ {
			tx.Store(base+memory.Addr(i), uint64(i))
		}
		return nil
	})
	var sum uint64
	rsLen := -1
	add := func(_ int, v uint64) bool { sum += v; return true }
	body := func(tx *Tx) error {
		sum = 0
		tx.LoadRange(base, n, add)
		rsLen = tx.ReadSetLen()
		return nil
	}
	opts := []TxOpt{ReadOnly()}
	if allocs := testing.AllocsPerRun(5, func() { th.Run(body, opts...) }); allocs != 0 {
		t.Errorf("a read-only 256-word LoadRange allocated %v times, want 0", allocs)
	}
	if want := uint64(n * (n - 1) / 2); sum != want {
		t.Fatalf("LoadRange sum = %d, want %d", sum, want)
	}
	if rsLen != n {
		t.Fatalf("read set = %d entries, want %d (one per orec)", rsLen, n)
	}
}
