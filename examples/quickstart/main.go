// Quickstart: the smallest complete use of the partitioned STM — a
// shared typed counter object and a sorted list updated by concurrent
// goroutines through the options-driven Run API, with automatic
// partitioning discovered from a profiling run.
package main

import (
	"fmt"
	"sync"

	"repro/stm"
	"repro/txds"
)

// Counter is a typed heap object: any pointer-free struct round-trips
// through a stm.Ref handle with one multi-word read or write.
type Counter struct {
	Hits  uint64
	Total uint64
}

func main() {
	// A runtime owns the transactional heap (sized in 64-bit words).
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 20})

	// Profiling records which allocation sites are linked by pointers;
	// the partitioner groups them into per-structure partitions.
	rt.StartProfiling()

	counterSite := rt.RegisterSite("quickstart.counter")
	var counter stm.Ref[Counter]
	var list *txds.List
	rt.Run(func(tx *stm.Tx) error {
		counter = stm.AllocRef[Counter](tx, counterSite)
		counter.Store(tx, Counter{})
		list = txds.NewList(tx, rt, "quickstart.list")
		return nil
	})
	// Touch the list so the profiler sees its head→node links.
	rt.Run(func(tx *stm.Tx) error {
		for k := uint64(0); k < 8; k++ {
			list.Insert(tx, k, k*k)
		}
		return nil
	})

	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		panic(err)
	}
	fmt.Print(plan.Describe(rt.Sites()))

	// Concurrent workers: every Run block is one serializable
	// transaction; conflicts retry automatically. Transactions are
	// goroutine-native — workers call rt.Run directly, and the runtime's
	// slot pool hands each hot goroutine the same warm slot on every call.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rt.Run(func(tx *stm.Tx) error {
					c := counter.Load(tx)
					c.Hits++
					c.Total += id
					counter.Store(tx, c)
					list.Set(tx, id*1000+uint64(i), uint64(i))
					return nil
				})
			}
		}(uint64(w))
	}
	wg.Wait()

	// A read-only transaction: the ReadOnly option takes the cheap
	// no-write-set path (and upgrades transparently if it ever writes).
	rt.Run(func(tx *stm.Tx) error {
		c := counter.Load(tx)
		fmt.Printf("counter hits = %d (want 4000), total = %d (want 6000)\n", c.Hits, c.Total)
		// Workers upsert keys 0..3999; the eight setup keys are a subset.
		fmt.Printf("list size = %d (want 4000)\n", list.Len(tx))
		return nil
	}, stm.ReadOnly())
	for _, s := range rt.Stats() {
		if s.Commits > 0 {
			fmt.Printf("partition %-22s commits=%-6d aborts=%d\n", s.Name, s.Commits, s.TotalAborts())
		}
	}
}
