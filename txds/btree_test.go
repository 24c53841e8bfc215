package txds

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/stm"
)

// TestBTreeAgainstModel runs a long random op sequence against a map
// model, checking every result plus structural invariants periodically.
func TestBTreeAgainstModel(t *testing.T) {
	rt := newRT(t)
	var bt *BTree
	rt.Run(func(tx *stm.Tx) error { bt = NewBTree(tx, rt, "btm"); return nil })

	model := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(61))
	const keyRange = 300
	for i := 0; i < 10000; i++ {
		k := uint64(rng.Intn(keyRange))
		v := rng.Uint64()
		switch rng.Intn(5) {
		case 0, 1: // insert
			var got bool
			rt.Run(func(tx *stm.Tx) error { got = bt.Insert(tx, k, v); return nil })
			_, existed := model[k]
			if got == existed {
				t.Fatalf("op %d: Insert(%d) = %v, existed=%v", i, k, got, existed)
			}
			if !existed {
				model[k] = v
			}
		case 2: // set (upsert)
			rt.Run(func(tx *stm.Tx) error { bt.Set(tx, k, v); return nil })
			model[k] = v
		case 3: // remove
			var got uint64
			var ok bool
			rt.Run(func(tx *stm.Tx) error { got, ok = bt.Remove(tx, k); return nil })
			want, existed := model[k]
			if ok != existed || (ok && got != want) {
				t.Fatalf("op %d: Remove(%d) = (%d,%v), model (%d,%v)", i, k, got, ok, want, existed)
			}
			delete(model, k)
		default: // lookup
			var got uint64
			var ok bool
			rt.Run(func(tx *stm.Tx) error { got, ok = bt.Lookup(tx, k); return nil }, stm.ReadOnly())
			want, existed := model[k]
			if ok != existed || (ok && got != want) {
				t.Fatalf("op %d: Lookup(%d) = (%d,%v), model (%d,%v)", i, k, got, ok, want, existed)
			}
		}
		if i%250 == 0 {
			rt.Run(func(tx *stm.Tx) error {
				if msg := bt.CheckInvariants(tx); msg != "" {
					t.Fatalf("op %d: %s", i, msg)
				}
				if n := bt.Len(tx); n != len(model) {
					t.Fatalf("op %d: Len = %d, model %d", i, n, len(model))
				}
				return nil
			}, stm.ReadOnly())
		}
	}
	// Final: full key comparison.
	want := make([]uint64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	rt.Run(func(tx *stm.Tx) error {
		got := bt.Keys(tx)
		if len(got) != len(want) {
			t.Fatalf("Keys len %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Keys[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	}, stm.ReadOnly())
}

// TestBTreeSplitsAndMerges drives the tree deep enough that splits,
// borrows, merges and root shrinks all occur, then drains it to empty.
func TestBTreeSplitsAndMerges(t *testing.T) {
	rt := newRT(t)
	var bt *BTree
	rt.Run(func(tx *stm.Tx) error { bt = NewBTree(tx, rt, "btsm"); return nil })
	const n = 2000
	perm := rand.New(rand.NewSource(67)).Perm(n)
	for _, k := range perm {
		kk := uint64(k)
		rt.Run(func(tx *stm.Tx) error {
			if !bt.Insert(tx, kk, kk*2) {
				t.Fatalf("fresh key %d rejected", kk)
			}
			return nil
		})
	}
	rt.Run(func(tx *stm.Tx) error {
		if msg := bt.CheckInvariants(tx); msg != "" {
			t.Fatal(msg)
		}
		if got := bt.Len(tx); got != n {
			t.Fatalf("Len = %d, want %d", got, n)
		}
		return nil
	}, stm.ReadOnly())
	// Remove in a different random order; every removal must succeed and
	// keep the invariants (checked in batches for speed).
	perm2 := rand.New(rand.NewSource(71)).Perm(n)
	for i, k := range perm2 {
		kk := uint64(k)
		rt.Run(func(tx *stm.Tx) error {
			v, ok := bt.Remove(tx, kk)
			if !ok || v != kk*2 {
				t.Fatalf("Remove(%d) = (%d,%v)", kk, v, ok)
			}
			return nil
		})
		if i%200 == 0 {
			rt.Run(func(tx *stm.Tx) error {
				if msg := bt.CheckInvariants(tx); msg != "" {
					t.Fatalf("after %d removals: %s", i+1, msg)
				}
				return nil
			}, stm.ReadOnly())
		}
	}
	rt.Run(func(tx *stm.Tx) error {
		if got := bt.Len(tx); got != 0 {
			t.Fatalf("Len = %d after draining", got)
		}
		return nil
	}, stm.ReadOnly())
}

// TestBTreeProperty is the testing/quick law: inserting any key set then
// removing a subset leaves exactly the difference, in sorted order, with
// invariants intact.
func TestBTreeProperty(t *testing.T) {
	rt := newRT(t)
	idx := 0
	f := func(ins []uint16, del []uint16) bool {
		idx++
		var bt *BTree
		rt.Run(func(tx *stm.Tx) error { bt = NewBTree(tx, rt, "btp"+itoa(idx)); return nil })
		model := map[uint64]bool{}
		for _, k := range ins {
			kk := uint64(k)
			rt.Run(func(tx *stm.Tx) error { bt.Insert(tx, kk, kk); return nil })
			model[kk] = true
		}
		for _, k := range del {
			kk := uint64(k)
			rt.Run(func(tx *stm.Tx) error { bt.Remove(tx, kk); return nil })
			delete(model, kk)
		}
		ok := true
		rt.Run(func(tx *stm.Tx) error {
			if msg := bt.CheckInvariants(tx); msg != "" {
				ok = false
				return nil
			}
			keys := bt.Keys(tx)
			if len(keys) != len(model) {
				ok = false
				return nil
			}
			for i, k := range keys {
				if !model[k] || (i > 0 && keys[i-1] >= k) {
					ok = false
					return nil
				}
			}
			return nil
		}, stm.ReadOnly())
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeConcurrent checks linear counting under concurrent disjoint
// inserts and a shared mixed phase with invariants at the end.
func TestBTreeConcurrent(t *testing.T) {
	rt := newRT(t)
	var bt *BTree
	rt.Run(func(tx *stm.Tx) error { bt = NewBTree(tx, rt, "btc"); return nil })
	const workers, perW = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := uint64(id*perW + i) // disjoint ranges: all inserts fresh
				rt.Run(func(tx *stm.Tx) error {
					if !bt.Insert(tx, k, k) {
						t.Errorf("fresh key %d rejected", k)
					}
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	rt.Run(func(tx *stm.Tx) error {
		if got := bt.Len(tx); got != workers*perW {
			t.Fatalf("Len = %d, want %d", got, workers*perW)
		}
		if msg := bt.CheckInvariants(tx); msg != "" {
			t.Fatal(msg)
		}
		return nil
	}, stm.ReadOnly())
}

// TestBTreeZeroAndMaxKeys exercises the key-domain edges.
func TestBTreeZeroAndMaxKeys(t *testing.T) {
	rt := newRT(t)
	var bt *BTree
	rt.Run(func(tx *stm.Tx) error { bt = NewBTree(tx, rt, "btz"); return nil })
	maxK := ^uint64(0)
	rt.Run(func(tx *stm.Tx) error {
		bt.Insert(tx, 0, 10)
		bt.Insert(tx, maxK, 20)
		bt.Insert(tx, 1, 11)
		return nil
	})
	rt.Run(func(tx *stm.Tx) error {
		if v, ok := bt.Lookup(tx, 0); !ok || v != 10 {
			t.Fatalf("Lookup(0) = (%d,%v)", v, ok)
		}
		if v, ok := bt.Lookup(tx, maxK); !ok || v != 20 {
			t.Fatalf("Lookup(max) = (%d,%v)", v, ok)
		}
		keys := bt.Keys(tx)
		if len(keys) != 3 || keys[0] != 0 || keys[2] != maxK {
			t.Fatalf("keys = %v", keys)
		}
		return nil
	}, stm.ReadOnly())
	rt.Run(func(tx *stm.Tx) error {
		if _, ok := bt.Remove(tx, 0); !ok {
			t.Fatal("Remove(0) failed")
		}
		if bt.Contains(tx, 0) {
			t.Fatal("0 still present")
		}
		return nil
	})
}
