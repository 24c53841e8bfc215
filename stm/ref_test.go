package stm_test

import (
	"sync"
	"testing"

	"repro/stm"
)

type account struct {
	Balance uint64
	Limit   uint64
	Flags   uint64
}

// oddSized is 20 bytes (4-byte aligned, so no padding rounds it up) —
// not a multiple of the word size, exercising the byte-copy
// encode/decode path and the zeroed padding tail.
type oddSized struct {
	V [4]uint32
	T uint32
}

// subWordAligned is word-SIZED but only 4-byte aligned: the direct
// *uint64 view would be a misaligned pointer conversion (checkptr
// panics under -race), so it must take the copy path.
type subWordAligned struct{ A, B uint32 }

// TestRefRoundTrip checks Load(Store(v)) == v for word-multiple and
// odd-sized types, plus the handle surface (Addr, Words, RefAt, the nil Ref).
func TestRefRoundTrip(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	site := rt.RegisterSite("ref.rt")

	if w := stm.RefAt[account](1).Words(); w != 3 {
		t.Fatalf("Ref[account] words = %d, want 3", w)
	}
	if w := stm.RefAt[oddSized](1).Words(); w != 3 {
		t.Fatalf("Ref[oddSized] words = %d, want 3 (20 bytes rounded up)", w)
	}

	var ar stm.Ref[account]
	var or stm.Ref[oddSized]
	var sr stm.Ref[subWordAligned]
	want := account{Balance: 12345, Limit: 99, Flags: 0xDEAD}
	wantOdd := oddSized{V: [4]uint32{1 << 30, 7, 65535, 200}, T: 0xBEEF}
	wantSub := subWordAligned{A: 0xA5A5A5A5, B: 0x5A5A5A5A}
	rt.Run(func(tx *stm.Tx) error {
		ar = stm.AllocRef[account](tx, site)
		ar.Store(tx, want)
		or = stm.AllocRef[oddSized](tx, site)
		or.Store(tx, wantOdd)
		sr = stm.AllocRef[subWordAligned](tx, site)
		sr.Store(tx, wantSub)
		return nil
	})
	rt.Run(func(tx *stm.Tx) error {
		if got := ar.Load(tx); got != want {
			t.Errorf("account round trip: %+v, want %+v", got, want)
		}
		if got := or.Load(tx); got != wantOdd {
			t.Errorf("oddSized round trip: %+v, want %+v", got, wantOdd)
		}
		if got := sr.Load(tx); got != wantSub {
			t.Errorf("subWordAligned round trip: %+v, want %+v", got, wantSub)
		}
		// Rebuilding the handle from its address reads the same object.
		if got := stm.RefAt[account](ar.Addr()).Load(tx); got != want {
			t.Errorf("RefAt round trip: %+v, want %+v", got, want)
		}
		// The word view and the typed view agree.
		if v := tx.Load(ar.WordAddr(0)); v != want.Balance {
			t.Errorf("word 0 = %d, want %d", v, want.Balance)
		}
		return nil
	}, stm.ReadOnly())

	if stm.RefAt[account](stm.Nil).Addr() != stm.Nil {
		t.Fatal("RefAt(Nil) is not nil")
	}
	var zero stm.Ref[account]
	if zero.Addr() != stm.Nil {
		t.Fatal("zero Ref is not nil")
	}
}

// twelveBytes is neither word-sized nor word-aligned: Load and Store stage
// it through a word buffer, two words with a four-byte padding tail.
type twelveBytes struct{ A, B, C uint32 }

// bigOdd is past the stack staging buffer (9 words): the one shape that
// still takes a heap buffer.
type bigOdd struct{ V [17]uint32 }

// TestRefStagingDoesNotAllocate pins the staging path of non-word-viewable
// types to the stack, checks the padding tail of the last word is written
// as zero — over stale heap contents — and reads back zero, and that the
// heap fallback past the stack buffer still round-trips.
func TestRefStagingDoesNotAllocate(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	site := rt.RegisterSite("ref.staging")

	var r stm.Ref[twelveBytes]
	var big stm.Ref[bigOdd]
	rt.Run(func(tx *stm.Tx) error {
		r = stm.AllocRef[twelveBytes](tx, site)
		// Stale contents in both words, as recycled memory would hold.
		tx.Store(r.WordAddr(0), ^uint64(0))
		tx.Store(r.WordAddr(1), ^uint64(0))
		big = stm.AllocRef[bigOdd](tx, site)
		return nil
	})
	if r.Words() != 2 || big.Words() != 9 {
		t.Fatalf("words = %d and %d, want 2 and 9", r.Words(), big.Words())
	}
	want := twelveBytes{A: 0xA1A2A3A4, B: 0xB1B2B3B4, C: 0xC1C2C3C4}
	rt.Run(func(tx *stm.Tx) error { r.Store(tx, want); return nil })
	rt.Run(func(tx *stm.Tx) error {
		if got := r.Load(tx); got != want {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
		if tail := tx.Load(r.WordAddr(1)) >> 32; tail != 0 {
			t.Fatalf("padding tail of the last word = %#x, want 0", tail)
		}
		return nil
	}, stm.ReadOnly())

	var sink twelveBytes
	store := func(tx *stm.Tx) error { r.Store(tx, want); return nil }
	load := func(tx *stm.Tx) error { sink = r.Load(tx); return nil }
	if n := testing.AllocsPerRun(200, func() {
		rt.Run(store)
		rt.Run(load, stm.ReadOnly())
	}); n != 0 {
		t.Fatalf("Store+Load of a 12-byte struct allocates %.1f times per run, want 0", n)
	}
	if sink != want {
		t.Fatalf("load under AllocsPerRun = %+v, want %+v", sink, want)
	}

	var bw bigOdd
	for i := range bw.V {
		bw.V[i] = uint32(i + 1)
	}
	rt.Run(func(tx *stm.Tx) error { big.Store(tx, bw); return nil })
	rt.Run(func(tx *stm.Tx) error {
		if got := big.Load(tx); got != bw {
			t.Fatalf("9-word round trip = %+v, want %+v", got, bw)
		}
		if tail := tx.Load(big.WordAddr(8)) >> 32; tail != 0 {
			t.Fatalf("padding tail of the 9-word object = %#x, want 0", tail)
		}
		return nil
	}, stm.ReadOnly())
}

// TestRefRejectsPointerTypes checks the heap-type validation: Go
// pointers (and pointer-carrying kinds) must not enter the heap.
func TestRefRejectsPointerTypes(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("pointer field", func() { stm.RefAt[struct{ P *int }](stm.Nil) })
	assertPanics("slice", func() { stm.RefAt[[]uint64](stm.Nil) })
	assertPanics("string field", func() { stm.RefAt[struct{ S string }](stm.Nil) })
	assertPanics("map", func() { stm.RefAt[map[int]int](stm.Nil) })
	assertPanics("zero size", func() { stm.RefAt[struct{}](stm.Nil) })
}

// TestRefTorture hammers one typed object from concurrent workers under
// every write mode: each transaction moves value between the object's
// two balance fields and bumps its op counter, so Total is invariant and
// Ops counts commits exactly. Torn multi-word reads or lost writes —
// e.g. a Store that skipped a word's lock — would break one of the two.
func TestRefTorture(t *testing.T) {
	type obj struct {
		A, B uint64 // A+B invariant
		Ops  uint64
	}
	const total = 1 << 20
	modes := []struct {
		name string
		mut  func(*stm.PartConfig)
	}{
		{"wb", func(c *stm.PartConfig) {}},
		{"wt", func(c *stm.PartConfig) { c.Write = stm.WriteThrough }},
		{"ctl", func(c *stm.PartConfig) { c.Acquire = stm.CommitTime }},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := stm.DefaultPartConfig()
			m.mut(&cfg)
			rt := stm.MustNew(stm.Config{HeapWords: 1 << 16, Default: &cfg, YieldEveryOps: 8})
			site := rt.RegisterSite("ref.torture")
			var r stm.Ref[obj]
			rt.Run(func(tx *stm.Tx) error {
				r = stm.AllocRef[obj](tx, site)
				r.Store(tx, obj{A: total})
				return nil
			})

			const workers, opsEach = 8, 300
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					for i := 0; i < opsEach; i++ {
						rt.Run(func(tx *stm.Tx) error {
							o := r.Load(tx)
							if o.A+o.B != total {
								t.Errorf("torn read: A+B = %d", o.A+o.B)
							}
							move := (seed + uint64(i)) % 100
							if move > o.A {
								move = o.A
							}
							o.A -= move
							o.B += move
							o.Ops++
							r.Store(tx, o)
							return nil
						})
					}
				}(uint64(w)*7 + 1)
			}
			wg.Wait()
			rt.Run(func(tx *stm.Tx) error {
				o := r.Load(tx)
				if o.A+o.B != total {
					t.Fatalf("invariant broken: A+B = %d, want %d", o.A+o.B, total)
				}
				if o.Ops != workers*opsEach {
					t.Fatalf("lost updates: Ops = %d, want %d", o.Ops, workers*opsEach)
				}
				return nil
			}, stm.ReadOnly())
		})
	}
}

// TestRefSnapshotScan checks typed objects under snapshot mode: readers
// scanning a list of objects through Run(Snapshot()) always see each
// object whole (the per-object invariant holds at the pinned snapshot)
// while writers rewrite objects wholesale, and reconstruction hits are
// actually served.
func TestRefSnapshotScan(t *testing.T) {
	type obj struct {
		A, B, C, D uint64 // A+B+C+D == 4*Gen, all four equal Gen
		Gen        uint64
	}
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 18, SnapshotHistory: 1 << 12, YieldEveryOps: 8})
	site := rt.RegisterSite("ref.snap")
	const nObjs = 32
	refs := make([]stm.Ref[obj], nObjs)
	rt.Run(func(tx *stm.Tx) error {
		for i := range refs {
			refs[i] = stm.AllocRef[obj](tx, site)
			refs[i].Store(tx, obj{})
		}
		return nil
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: bump whole objects
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := refs[i%nObjs]
			rt.Run(func(tx *stm.Tx) error {
				o := r.Load(tx)
				g := o.Gen + 1
				r.Store(tx, obj{A: g, B: g, C: g, D: g, Gen: g})
				return nil
			})
		}
	}()
	var snapHits uint64
	for round := 0; round < 200; round++ {
		rt.Run(func(tx *stm.Tx) error {
			for i := range refs {
				o := refs[i].Load(tx)
				if o.A != o.Gen || o.B != o.Gen || o.C != o.Gen || o.D != o.Gen {
					t.Errorf("torn snapshot object %d: %+v", i, o)
				}
			}
			snapHits += tx.SnapshotHits()
			return nil
		}, stm.Snapshot())
	}
	close(stop)
	wg.Wait()
	st := rt.Stats()[stm.GlobalPartition]
	t.Logf("snapshot scan: %d reconstructed reads (SnapHits=%d SnapMisses=%d)", snapHits, st.SnapHits, st.SnapMisses)
}
