package tuning

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
)

// holdLock starts a transaction that writes a (taking its orec lock at
// encounter time) and then parks inside user code until release is
// closed; held is closed once the lock is taken. done is closed after
// the transaction commits and the thread has left the engine — Ticks
// that reconfigure (quiesce) must not run before then.
func holdLock(e *core.Engine, a memory.Addr, held, release, done chan struct{}) {
	go func() {
		defer close(done)
		th := e.BorrowThread()
		defer e.ReturnThread(th)
		first := true
		th.Run(func(tx *core.Tx) error {
			tx.Store(a, 7)
			if first {
				first = false
				close(held)
				<-release
			}
			return nil
		})
	}()
}

// TestSpinBudgetShrinksOnEscalatedWaits: a partition whose waits
// routinely blow through the spin budget into scheduler yields/parks
// (here: a snapshot reader waiting out a long lock hold) must have its
// SpinBudget halved by heuristic (6).
func TestSpinBudgetShrinksOnEscalatedWaits(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig()
	cfg.HillClimb = false
	cfg.AdaptSpin = true
	cfg.MinCommits = 1
	tn := New(e, cfg)

	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})

	startBudget := mustConfig(t, e).SpinBudget
	deadline := time.Now().Add(10 * time.Second)
	for mustConfig(t, e).SpinBudget >= startBudget {
		if time.Now().After(deadline) {
			t.Fatalf("spin budget never shrank from %d; trace: %v", startBudget, tn.Trace())
		}
		held := make(chan struct{})
		release := make(chan struct{})
		done := make(chan struct{})
		holdLock(e, a, held, release, done)
		<-held
		// Snapshot-mode reader: with no history store it simply waits the
		// writer out, escalating past the budget into yields and parks.
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			rth := e.BorrowThread()
			defer e.ReturnThread(rth)
			rth.Run(func(tx *core.Tx) error { tx.Load(a); return nil }, core.Snapshot())
		}()
		// Wait until the reader has demonstrably escalated: the yield and
		// park counters are the very signal under test.
		base := e.StatsSnapshot(core.GlobalPartition)
		for {
			cur := e.StatsSnapshot(core.GlobalPartition)
			if cur.Yields+cur.Parks >= base.Yields+base.Parks+2000 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("reader never escalated past the spin budget (yields=%d parks=%d)",
					cur.Yields, cur.Parks)
			}
			time.Sleep(time.Millisecond)
		}
		close(release)
		<-done
		<-readerDone
		// A few clean commits so the partition counts as active.
		for i := 0; i < 20; i++ {
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		}
		tn.Tick()
	}
	if got := mustConfig(t, e).SpinBudget; got != startBudget/2 {
		t.Fatalf("SpinBudget = %d after shrink, want %d", got, startBudget/2)
	}
}

// TestSpinBudgetGrowsOnNonEscalatingLockAborts: a partition aborting
// heavily on lock conflicts whose waits never leave the spin phase must
// have its SpinBudget doubled.
func TestSpinBudgetGrowsOnNonEscalatingLockAborts(t *testing.T) {
	e := newEngine(t)
	// CMSpin aborts the moment the budget is exhausted, so a lock held
	// longer than the budget converts bounded spinning (pure phase-1 wait
	// cycles, no yields) into AbortLockedOn* aborts — exactly the grow
	// signal.
	cfg := DefaultConfig()
	cfg.HillClimb = false
	cfg.AdaptSpin = true
	cfg.MinCommits = 1
	tn := New(e, cfg)

	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})

	startBudget := mustConfig(t, e).SpinBudget
	deadline := time.Now().Add(10 * time.Second)
	for mustConfig(t, e).SpinBudget <= startBudget {
		if time.Now().After(deadline) {
			t.Fatalf("spin budget never grew from %d; trace: %v", startBudget, tn.Trace())
		}
		held := make(chan struct{})
		release := make(chan struct{})
		done := make(chan struct{})
		holdLock(e, a, held, release, done)
		<-held
		// Bounded contenders: each attempt spins out its budget against
		// the held lock and aborts (one attempt each, so Run returns).
		for i := 0; i < 10; i++ {
			err := th.Run(func(tx *core.Tx) error {
				tx.Store(a, 1)
				return nil
			}, core.MaxAttempts(1))
			if !errors.Is(err, core.ErrMaxAttempts) {
				t.Fatalf("contender attempt %d: err = %v, want ErrMaxAttempts", i, err)
			}
		}
		close(release)
		<-done
		for i := 0; i < 20; i++ {
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		}
		tn.Tick()
	}
	if got := mustConfig(t, e).SpinBudget; got != startBudget*2 {
		t.Fatalf("SpinBudget = %d after growth, want %d", got, startBudget*2)
	}
}

// mustConfig returns the global partition's current configuration.
func mustConfig(t *testing.T, e *core.Engine) core.PartConfig {
	t.Helper()
	p := e.Partition(core.GlobalPartition)
	if p == nil {
		t.Fatal("no global partition")
	}
	return p.Config()
}
