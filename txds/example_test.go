package txds_test

import (
	"fmt"

	"repro/stm"
	"repro/txds"
)

func newExampleRT() *stm.Runtime {
	return stm.MustNew(stm.Config{HeapWords: 1 << 18})
}

// ExampleRBTree shows the ordered-map surface of the red/black tree.
func ExampleRBTree() {
	rt := newExampleRT()
	var tree *txds.RBTree
	rt.Run(func(tx *stm.Tx) error { tree = txds.NewRBTree(tx, rt, "ex.tree"); return nil })
	rt.Run(func(tx *stm.Tx) error {
		tree.Insert(tx, 30, 300)
		tree.Insert(tx, 10, 100)
		tree.Insert(tx, 20, 200)
		return nil
	})
	rt.Run(func(tx *stm.Tx) error {
		fmt.Println("keys:", tree.Keys(tx))
		v, _ := tree.Lookup(tx, 20)
		fmt.Println("tree[20] =", v)
		minK, _ := tree.Min(tx)
		fmt.Println("min key =", minK)
		return nil
	}, stm.ReadOnly())
	// Output:
	// keys: [10 20 30]
	// tree[20] = 200
	// min key = 10
}

// ExamplePriorityQueue shows min-priority ordering with duplicates.
func ExamplePriorityQueue() {
	rt := newExampleRT()
	var pq *txds.PriorityQueue
	rt.Run(func(tx *stm.Tx) error { pq = txds.NewPriorityQueue(tx, rt, "ex.pq", 1); return nil })
	rt.Run(func(tx *stm.Tx) error {
		pq.Insert(tx, 5, 50)
		pq.Insert(tx, 1, 10)
		pq.Insert(tx, 5, 51)
		pq.Insert(tx, 3, 30)
		return nil
	})
	rt.Run(func(tx *stm.Tx) error {
		for {
			prio, _, ok := pq.PopMin(tx)
			if !ok {
				break
			}
			fmt.Print(prio, " ")
		}
		fmt.Println()
		return nil
	})
	// Output: 1 3 5 5
}

// ExampleDeque shows both ends of the double-ended queue.
func ExampleDeque() {
	rt := newExampleRT()
	var d *txds.Deque
	rt.Run(func(tx *stm.Tx) error { d = txds.NewDeque(tx, rt, "ex.deque"); return nil })
	rt.Run(func(tx *stm.Tx) error {
		d.PushBack(tx, 2)
		d.PushFront(tx, 1)
		d.PushBack(tx, 3)
		return nil
	})
	rt.Run(func(tx *stm.Tx) error { fmt.Println(d.Values(tx)); return nil }, stm.ReadOnly())
	rt.Run(func(tx *stm.Tx) error {
		front, _ := d.PopFront(tx)
		back, _ := d.PopBack(tx)
		fmt.Println(front, back)
		return nil
	})
	// Output:
	// [1 2 3]
	// 1 3
}

// ExampleQueue shows FIFO ordering across transactions.
func ExampleQueue() {
	rt := newExampleRT()
	var q *txds.Queue
	rt.Run(func(tx *stm.Tx) error { q = txds.NewQueue(tx, rt, "ex.queue"); return nil })
	for v := uint64(1); v <= 3; v++ {
		vv := v
		rt.Run(func(tx *stm.Tx) error { q.Enqueue(tx, vv); return nil })
	}
	for {
		var v uint64
		var ok bool
		rt.Run(func(tx *stm.Tx) error { v, ok = q.Dequeue(tx); return nil })
		if !ok {
			break
		}
		fmt.Print(v, " ")
	}
	fmt.Println()
	// Output: 1 2 3
}

// ExampleCounterArray shows the invariant-preserving transfer helper.
func ExampleCounterArray() {
	rt := newExampleRT()
	var accounts *txds.CounterArray
	rt.Run(func(tx *stm.Tx) error {
		accounts = txds.NewCounterArray(tx, rt, "ex.accounts", 4, 100)
		return nil
	})
	rt.Run(func(tx *stm.Tx) error { accounts.Transfer(tx, 0, 3, 25); return nil })
	rt.Run(func(tx *stm.Tx) error {
		fmt.Println("a0:", accounts.Get(tx, 0), "a3:", accounts.Get(tx, 3), "sum:", accounts.Sum(tx))
		return nil
	}, stm.ReadOnly())
	// Output: a0: 75 a3: 125 sum: 400
}
