// Taskgraph: a work-scheduling pipeline built from the container
// structures — a priority queue of pending tasks, a deque of running
// tasks (stolen from both ends), and a stack of completed task records —
// each discovered as its own partition with its own contention profile.
// The tuner adapts each partition's read visibility and lock granularity
// from that profile.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/stm"
	"repro/txds"
)

const (
	producers = 2
	workers   = 4
	tasks     = 4000
)

func main() {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 20, YieldEveryOps: 8})

	rt.StartProfiling()
	var (
		pending *txds.PriorityQueue
		running *txds.Deque
		done    *txds.Stack
	)
	rt.Run(func(tx *stm.Tx) error {
		pending = txds.NewPriorityQueue(tx, rt, "graph.pending", 1)
		running = txds.NewDeque(tx, rt, "graph.running")
		done = txds.NewStack(tx, rt, "graph.done")
		return nil
	})
	// Prime each structure so the profiler sees its pointer links.
	rt.Run(func(tx *stm.Tx) error {
		pending.Insert(tx, 0, 0)
		running.PushBack(tx, 0)
		done.Push(tx, 0)
		pending.PopMin(tx)
		running.PopFront(tx)
		done.Pop(tx)
		return nil
	})
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		panic(err)
	}
	fmt.Print(plan.Describe(rt.Sites()))

	// Short epochs and a low activity floor, so the tuner acts within
	// this brief run.
	tc := stm.DefaultTunerConfig()
	tc.Interval = 20 * time.Millisecond
	tc.MinCommits = 50
	rt.StartTuner(tc)

	var wg sync.WaitGroup
	var produced, completed atomic.Uint64

	// Producers enqueue prioritized tasks.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < tasks/producers; i++ {
				taskID := id*1_000_000 + uint64(i)
				prio := taskID % 17
				rt.Run(func(tx *stm.Tx) error { pending.Insert(tx, prio, taskID); return nil })
				produced.Add(1)
			}
		}(uint64(p))
	}

	// Workers: claim highest-priority task into the running deque, "run"
	// it, then move it to the done stack. Even-numbered workers steal from
	// the front of the running deque, odd ones from the back.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for completed.Load() < tasks {
				var task uint64
				var got bool
				rt.Run(func(tx *stm.Tx) error {
					_, task, got = pending.PopMin(tx)
					if got {
						running.PushBack(tx, task)
					}
					return nil
				})
				if !got {
					continue
				}
				rt.Run(func(tx *stm.Tx) error {
					var t uint64
					var ok bool
					if id%2 == 0 {
						t, ok = running.PopFront(tx)
					} else {
						t, ok = running.PopBack(tx)
					}
					if ok {
						done.Push(tx, t)
					}
					return nil
				})
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	decisions := rt.StopTuner()

	rt.Run(func(tx *stm.Tx) error {
		fmt.Printf("produced=%d completed(done stack)=%d pending-left=%d running-left=%d\n",
			produced.Load(), done.Len(tx), pending.Len(tx), running.Len(tx))
		return nil
	})
	for _, s := range rt.Stats() {
		if s.Commits > 0 {
			fmt.Printf("partition %-20s commits=%-7d aborts=%-6d abort-rate=%.3f\n",
				s.Name, s.Commits, s.TotalAborts(), s.AbortRate())
		}
	}
	for _, d := range decisions {
		fmt.Println("tuner:", d)
	}
}
