package txds

import (
	"testing"

	"repro/stm"
)

// Fuzz targets: each decodes a byte stream as an operation script and
// cross-checks a transactional structure against a plain Go model. Run
// with `go test -fuzz=FuzzBTreeOps ./txds` for continuous fuzzing; under
// plain `go test` the seed corpus below runs as regression tests.

func fuzzSeedScripts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte("insert-remove-insert-remove"))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
}

// FuzzBTreeOps interprets bytes as ops on a B-tree vs a map model.
func FuzzBTreeOps(f *testing.F) {
	fuzzSeedScripts(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		rt, err := stm.New(stm.Config{HeapWords: 1 << 18, BlockShift: 8})
		if err != nil {
			t.Skip()
		}
		var bt *BTree
		rt.Run(func(tx *stm.Tx) error { bt = NewBTree(tx, rt, "fz"); return nil })
		model := map[uint64]uint64{}
		for i := 0; i+1 < len(script); i += 2 {
			op, k := script[i]%3, uint64(script[i+1]%64)
			switch op {
			case 0:
				var got bool
				rt.Run(func(tx *stm.Tx) error { got = bt.Insert(tx, k, k); return nil })
				_, existed := model[k]
				if got == existed {
					t.Fatalf("op %d: Insert(%d)=%v existed=%v", i, k, got, existed)
				}
				model[k] = k
			case 1:
				var ok bool
				rt.Run(func(tx *stm.Tx) error { _, ok = bt.Remove(tx, k); return nil })
				if _, existed := model[k]; ok != existed {
					t.Fatalf("op %d: Remove(%d)=%v existed=%v", i, k, ok, existed)
				}
				delete(model, k)
			default:
				var ok bool
				rt.Run(func(tx *stm.Tx) error { ok = bt.Contains(tx, k); return nil }, stm.ReadOnly())
				if _, existed := model[k]; ok != existed {
					t.Fatalf("op %d: Contains(%d)=%v existed=%v", i, k, ok, existed)
				}
			}
		}
		rt.Run(func(tx *stm.Tx) error {
			if msg := bt.CheckInvariants(tx); msg != "" {
				t.Fatal(msg)
			}
			if got := bt.Len(tx); got != len(model) {
				t.Fatalf("Len=%d model=%d", got, len(model))
			}
			return nil
		}, stm.ReadOnly())
	})
}

// FuzzDequeOps interprets bytes as ops on a deque vs a slice model.
func FuzzDequeOps(f *testing.F) {
	fuzzSeedScripts(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		rt, err := stm.New(stm.Config{HeapWords: 1 << 18, BlockShift: 8})
		if err != nil {
			t.Skip()
		}
		var d *Deque
		rt.Run(func(tx *stm.Tx) error { d = NewDeque(tx, rt, "fzd"); return nil })
		var model []uint64
		for i, b := range script {
			v := uint64(b)
			switch b % 4 {
			case 0:
				rt.Run(func(tx *stm.Tx) error { d.PushFront(tx, v); return nil })
				model = append([]uint64{v}, model...)
			case 1:
				rt.Run(func(tx *stm.Tx) error { d.PushBack(tx, v); return nil })
				model = append(model, v)
			case 2:
				var got uint64
				var ok bool
				rt.Run(func(tx *stm.Tx) error { got, ok = d.PopFront(tx); return nil })
				if ok != (len(model) > 0) || (ok && got != model[0]) {
					t.Fatalf("op %d: PopFront mismatch", i)
				}
				if ok {
					model = model[1:]
				}
			default:
				var got uint64
				var ok bool
				rt.Run(func(tx *stm.Tx) error { got, ok = d.PopBack(tx); return nil })
				if ok != (len(model) > 0) || (ok && got != model[len(model)-1]) {
					t.Fatalf("op %d: PopBack mismatch", i)
				}
				if ok {
					model = model[:len(model)-1]
				}
			}
		}
		rt.Run(func(tx *stm.Tx) error {
			if got := d.Len(tx); got != len(model) {
				t.Fatalf("Len=%d model=%d", got, len(model))
			}
			return nil
		}, stm.ReadOnly())
	})
}

// FuzzPriorityQueueOps interprets bytes as insert/pop ops vs a sorted
// multiset model.
func FuzzPriorityQueueOps(f *testing.F) {
	fuzzSeedScripts(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		rt, err := stm.New(stm.Config{HeapWords: 1 << 18, BlockShift: 8})
		if err != nil {
			t.Skip()
		}
		var q *PriorityQueue
		rt.Run(func(tx *stm.Tx) error { q = NewPriorityQueue(tx, rt, "fzq", 1); return nil })
		counts := map[uint64]int{} // priority multiset
		size := 0
		for i, b := range script {
			if b%3 != 0 && size > 0 {
				var prio uint64
				var ok bool
				rt.Run(func(tx *stm.Tx) error { prio, _, ok = q.PopMin(tx); return nil })
				if !ok {
					t.Fatalf("op %d: PopMin failed with size %d", i, size)
				}
				// Must be the minimum present priority.
				for p, c := range counts {
					if c > 0 && p < prio {
						t.Fatalf("op %d: popped %d but %d present", i, prio, p)
					}
				}
				counts[prio]--
				size--
				continue
			}
			p := uint64(b % 32)
			rt.Run(func(tx *stm.Tx) error { q.Insert(tx, p, p); return nil })
			counts[p]++
			size++
		}
		rt.Run(func(tx *stm.Tx) error {
			if got := q.Len(tx); got != size {
				t.Fatalf("Len=%d model=%d", got, size)
			}
			return nil
		}, stm.ReadOnly())
	})
}
