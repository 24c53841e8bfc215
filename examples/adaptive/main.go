// Adaptive: watch the runtime tuner follow a workload phase change live.
// The workload alternates between read-heavy range audits and update-heavy
// whole-array rebalances on one partition; the tuner switches the
// partition between invisible and visible reads and its decision trace is
// printed as it happens.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

const slots = 1 << 10

func main() {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 20, YieldEveryOps: 8})
	var arr *txds.CounterArray
	rt.Run(func(tx *stm.Tx) error {
		arr = txds.NewCounterArray(tx, rt, "adaptive.arr", slots, 100)
		return nil
	})

	tc := stm.DefaultTunerConfig()
	tc.Interval = 25 * time.Millisecond
	tc.Hysteresis = 1
	tc.HillClimb = false
	tc.MinCommits = 50
	rt.StartTuner(tc)

	// updatePhase is flipped by the main goroutine; workers read it.
	var updatePhase atomic.Bool
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRng(seed)
			for !stop.Load() {
				if updatePhase.Load() && rng.Float64() < 0.5 {
					to := rng.Intn(slots)
					rt.Run(func(tx *stm.Tx) error { // long update: scan + move
						maxI, maxV := 0, uint64(0)
						for i := 0; i < slots; i++ {
							if v := arr.Get(tx, i); v > maxV {
								maxV, maxI = v, i
							}
						}
						if maxI != to && maxV > 0 {
							arr.Transfer(tx, maxI, to, 1)
						}
						return nil
					})
				} else if updatePhase.Load() {
					from, to := rng.Intn(slots), rng.Intn(slots)
					rt.Run(func(tx *stm.Tx) error { arr.Transfer(tx, from, to, 1); return nil })
				} else {
					start := rng.Intn(slots - 128)
					rt.Run(func(tx *stm.Tx) error { // read-only audit
						var s uint64
						for i := 0; i < 128; i++ {
							s += arr.Get(tx, start+i)
						}
						_ = s
						return nil
					}, stm.ReadOnly())
				}
			}
		}(uint64(w) + 3)
	}

	printed := 0
	report := func(label string) {
		cfg, _ := rt.PartitionConfig(stm.GlobalPartition)
		fmt.Printf("[%s] partition config: %s\n", label, cfg)
		for _, d := range rt.TunerTrace()[printed:] {
			fmt.Println("  tuner:", d)
			printed++
		}
	}

	for cycle := 0; cycle < 2; cycle++ {
		updatePhase.Store(false)
		time.Sleep(700 * time.Millisecond)
		report(fmt.Sprintf("cycle %d, after read-heavy phase ", cycle))
		updatePhase.Store(true)
		time.Sleep(700 * time.Millisecond)
		report(fmt.Sprintf("cycle %d, after update-heavy phase", cycle))
	}
	stop.Store(true)
	wg.Wait()
	rt.StopTuner()

	var sum uint64
	rt.Run(func(tx *stm.Tx) error { sum = arr.Sum(tx); return nil }, stm.ReadOnly())
	fmt.Printf("final array total: %d (want %d — conserved)\n", sum, slots*100)
}
