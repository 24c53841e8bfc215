package stm_test

import (
	"fmt"

	"repro/stm"
	"repro/txds"
)

// Example shows the smallest complete use of the runtime: allocate a
// word, update it transactionally, read it back.
func Example() {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	site := rt.RegisterSite("example.counter")

	var counter stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		counter = tx.Alloc(site, 1)
		tx.Store(counter, 0)
		return nil
	})
	for i := 0; i < 10; i++ {
		rt.Run(func(tx *stm.Tx) error { tx.Store(counter, tx.Load(counter)+1); return nil })
	}
	rt.Run(func(tx *stm.Tx) error { fmt.Println(tx.Load(counter)); return nil }, stm.ReadOnly())
	// Output: 10
}

// ExampleRuntime_StopProfilingAndPartition shows automatic partition
// discovery: two unrelated structures end up in two partitions.
func ExampleRuntime_StopProfilingAndPartition() {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 18})
	rt.StartProfiling()
	var tree *txds.RBTree
	var inbox *txds.List
	rt.Run(func(tx *stm.Tx) error {
		tree = txds.NewRBTree(tx, rt, "orders.index")
		inbox = txds.NewList(tx, rt, "orders.inbox")
		return nil
	})
	rt.Run(func(tx *stm.Tx) error {
		tree.Insert(tx, 1, 100)
		inbox.Insert(tx, 1, 1)
		return nil
	})
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		panic(err)
	}
	fmt.Printf("partitions: %d\n", plan.NumPartitions()-1) // minus the global default
	// Output: partitions: 2
}

// ExampleRuntime_ManualPartition shows the explicit grouping escape hatch
// with a per-partition configuration override.
func ExampleRuntime_ManualPartition() {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	rt.RegisterSite("hot.cell")
	rt.RegisterSite("cold.cell")
	if _, err := rt.ManualPartition(map[string][]string{
		"hot":  {"hot.cell"},
		"cold": {"cold.cell"},
	}); err != nil {
		panic(err)
	}
	// Give the hot partition visible reads.
	for id, name := range rt.PartitionNames() {
		if name == "hot" {
			cfg, _ := rt.PartitionConfig(stm.PartID(id))
			cfg.Read = stm.VisibleReads
			if err := rt.Reconfigure(stm.PartID(id), cfg); err != nil {
				panic(err)
			}
			fmt.Println("hot partition:", cfg.Read)
		}
	}
	// Output: hot partition: visible
}

// ExampleRuntime_Run shows aborting a transaction from user code: the
// error is returned and all effects are discarded.
func ExampleRuntime_Run() {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	site := rt.RegisterSite("example.balance")

	var balance stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		balance = tx.Alloc(site, 1)
		tx.Store(balance, 30)
		return nil
	})
	withdraw := func(amount uint64) error {
		return rt.Run(func(tx *stm.Tx) error {
			b := tx.Load(balance)
			if b < amount {
				return fmt.Errorf("insufficient funds: %d < %d", b, amount)
			}
			tx.Store(balance, b-amount)
			return nil
		})
	}
	fmt.Println(withdraw(20))
	fmt.Println(withdraw(20))
	rt.Run(func(tx *stm.Tx) error { fmt.Println("balance:", tx.Load(balance)); return nil }, stm.ReadOnly())
	// Output:
	// <nil>
	// insufficient funds: 10 < 20
	// balance: 10
}
