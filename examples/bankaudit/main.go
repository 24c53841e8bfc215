// Bankaudit: invariant-preserving money transfers with concurrent
// consistent audits, on the options-driven Run API. Demonstrates that
// read-only transactions always see a consistent snapshot (the account
// total never wavers) while update transactions run at full speed, that
// MaxAttempts/OnAbort give callers control over the retry loop — and
// shows the per-partition statistics that drive the runtime tuner.
package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

const (
	accounts = 1 << 10
	initBal  = 1000
)

func main() {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 20, YieldEveryOps: 8})

	var arr *txds.CounterArray
	rt.Run(func(tx *stm.Tx) error {
		arr = txds.NewCounterArray(tx, rt, "bank.accounts", accounts, initBal)
		return nil
	})

	var (
		stop      atomic.Bool
		transfers atomic.Uint64
		gaveUp    atomic.Uint64
		retries   atomic.Uint64
		audits    atomic.Uint64
		wg        sync.WaitGroup
	)
	// Transfer workers. Each transfer runs with a bounded retry budget
	// and an abort observer — under pathological contention the worker
	// moves on instead of spinning forever.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRng(seed)
			for !stop.Load() {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				err := rt.Run(func(tx *stm.Tx) error {
					arr.Transfer(tx, from, to, 1+rng.Uint64()%50)
					return nil
				},
					stm.MaxAttempts(64),
					stm.OnAbort(func(stm.AbortCause, int) { retries.Add(1) }))
				if errors.Is(err, stm.ErrMaxAttempts) {
					gaveUp.Add(1)
					continue
				}
				transfers.Add(1)
			}
		}(uint64(w) + 1)
	}
	// Audit workers: full-array read-only scans; every one must see the
	// exact invariant total.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var sum uint64
				rt.Run(func(tx *stm.Tx) error {
					sum = arr.Sum(tx)
					return nil
				}, stm.ReadOnly())
				if sum != accounts*initBal {
					panic(fmt.Sprintf("audit saw inconsistent total %d", sum))
				}
				audits.Add(1)
			}
		}()
	}

	time.Sleep(2 * time.Second)
	stop.Store(true)
	wg.Wait()

	fmt.Printf("transfers: %d (%d retried attempts, %d hit MaxAttempts), audits: %d — every audit saw exactly %d\n",
		transfers.Load(), retries.Load(), gaveUp.Load(), audits.Load(), accounts*initBal)
	s := rt.Stats()[stm.GlobalPartition]
	fmt.Printf("commits=%d aborts=%d (validation=%d, locked=%d)\n",
		s.Commits, s.TotalAborts(),
		s.Aborts[stm.AbortValidation],
		s.Aborts[stm.AbortLockedOnRead]+s.Aborts[stm.AbortLockedOnWrite])
}
