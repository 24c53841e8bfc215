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
