package txds

import (
	"math/rand"
	"sync"
	"testing"

	"repro/stm"
)

// TestNodeRecyclingBoundsHeap cycles insert/remove far beyond the heap
// capacity; per-thread free lists must recycle nodes so the arena's
// block-in-use count stabilizes instead of growing with operation count.
func TestNodeRecyclingBoundsHeap(t *testing.T) {
	rt, err := stm.New(stm.Config{HeapWords: 1 << 16, BlockShift: 8})
	if err != nil {
		t.Fatal(err)
	}
	structures := map[string]setAPI{}
	rt.Run(func(tx *stm.Tx) error {
		structures["list"] = NewList(tx, rt, "reuse.list")
		structures["skiplist"] = NewSkipList(tx, rt, "reuse.skip", 9)
		structures["rbtree"] = NewRBTree(tx, rt, "reuse.tree")
		structures["hashset"] = NewHashSet(tx, rt, "reuse.hash", 32)
		return nil
	})
	for name, s := range structures {
		t.Run(name, func(t *testing.T) {
			// Prime: one full population to reach the steady footprint.
			for k := uint64(0); k < 64; k++ {
				rt.Run(func(tx *stm.Tx) error { s.Insert(tx, k, k); return nil })
			}
			for k := uint64(0); k < 64; k++ {
				rt.Run(func(tx *stm.Tx) error { s.Remove(tx, k); return nil })
			}
			base := rt.HeapInUseBlocks()
			// Churn: 50 more populate/drain cycles must not grow the heap by
			// more than a couple of blocks (allocator slack), far below the
			// ~50x growth leaking nodes would cause.
			for cycle := 0; cycle < 50; cycle++ {
				for k := uint64(0); k < 64; k++ {
					rt.Run(func(tx *stm.Tx) error { s.Insert(tx, k, k); return nil })
				}
				for k := uint64(0); k < 64; k++ {
					rt.Run(func(tx *stm.Tx) error { s.Remove(tx, k); return nil })
				}
			}
			grown := rt.HeapInUseBlocks() - base
			if grown > 4 {
				t.Fatalf("heap grew %d blocks over churn; nodes are leaking", grown)
			}
		})
	}
}

// TestRBTreeInvariantsUnderConcurrentChurn checks the red/black structure
// invariants (BST order, red-red, black height) hold after heavy
// concurrent mixed operations.
func TestRBTreeInvariantsUnderConcurrentChurn(t *testing.T) {
	rt := newRT(t)
	var tree *RBTree
	rt.Run(func(tx *stm.Tx) error { tree = NewRBTree(tx, rt, "churn.tree"); return nil })
	const workers, perW, keyRange = 6, 1200, 512
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				k := uint64(rng.Intn(keyRange))
				switch rng.Intn(3) {
				case 0:
					rt.Run(func(tx *stm.Tx) error { tree.Insert(tx, k, k); return nil })
				case 1:
					rt.Run(func(tx *stm.Tx) error { tree.Remove(tx, k); return nil })
				default:
					rt.Run(func(tx *stm.Tx) error { tree.Contains(tx, k); return nil }, stm.ReadOnly())
				}
			}
		}(int64(w) + 41)
	}
	wg.Wait()
	rt.Run(func(tx *stm.Tx) error {
		if msg := tree.CheckInvariants(tx); msg != "" {
			t.Fatal(msg)
		}
		keys := tree.Keys(tx)
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("Keys not strictly ascending at %d: %d >= %d", i, keys[i-1], keys[i])
			}
		}
		return nil
	}, stm.ReadOnly())
}

// TestKeysSortedEverywhere checks every ordered structure reports keys in
// ascending order after random upserts.
func TestKeysSortedEverywhere(t *testing.T) {
	rt := newRT(t)
	var list *List
	var skip *SkipList
	var tree *RBTree
	rt.Run(func(tx *stm.Tx) error {
		list = NewList(tx, rt, "sort.list")
		skip = NewSkipList(tx, rt, "sort.skip", 77)
		tree = NewRBTree(tx, rt, "sort.tree")
		return nil
	})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		k := rng.Uint64() % 10000
		rt.Run(func(tx *stm.Tx) error {
			list.Insert(tx, k, uint64(i))
			skip.Insert(tx, k, uint64(i))
			tree.Insert(tx, k, uint64(i))
			return nil
		})
	}
	rt.Run(func(tx *stm.Tx) error {
		for name, keys := range map[string][]uint64{
			"list": list.Keys(tx), "skiplist": skip.Keys(tx), "rbtree": tree.Keys(tx),
		} {
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					t.Fatalf("%s keys out of order at %d", name, i)
				}
			}
		}
		if a, b, c := list.Len(tx), skip.Len(tx), tree.Len(tx); a != b || b != c {
			t.Fatalf("structure sizes diverge: list=%d skip=%d tree=%d", a, b, c)
		}
		return nil
	}, stm.ReadOnly())
}
