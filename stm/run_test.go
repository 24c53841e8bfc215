package stm_test

import (
	"errors"
	"testing"

	"repro/stm"
)

// TestRunMaxAttempts checks the bounded retry loop: a transaction that
// explicitly aborts every attempt exhausts its budget, returns
// ErrMaxAttempts, leaves no effects behind, and reports every attempt to
// the OnAbort hook with its cause.
func TestRunMaxAttempts(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 14})
	site := rt.RegisterSite("ma")
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 7)
		return nil
	})

	var causes []stm.AbortCause
	var attempts []int
	err := rt.Run(func(tx *stm.Tx) error {
		tx.Store(a, 1000)
		tx.Abort()
		return nil
	},
		stm.MaxAttempts(3),
		stm.OnAbort(func(c stm.AbortCause, attempt int) {
			causes = append(causes, c)
			attempts = append(attempts, attempt)
		}))
	if !errors.Is(err, stm.ErrMaxAttempts) {
		t.Fatalf("err = %v, want ErrMaxAttempts", err)
	}
	if len(causes) != 3 {
		t.Fatalf("OnAbort fired %d times, want 3", len(causes))
	}
	for i, c := range causes {
		if c != stm.AbortExplicit {
			t.Fatalf("cause[%d] = %v, want AbortExplicit", i, c)
		}
		if attempts[i] != i+1 {
			t.Fatalf("attempt[%d] = %d, want %d", i, attempts[i], i+1)
		}
	}
	rt.Run(func(tx *stm.Tx) error {
		if got := tx.Load(a); got != 7 {
			t.Fatalf("exhausted transaction leaked a store: %d", got)
		}
		return nil
	}, stm.ReadOnly())

	// A committing transaction under a budget returns nil.
	if err := rt.Run(func(tx *stm.Tx) error {
		tx.Store(a, 8)
		return nil
	}, stm.MaxAttempts(1)); err != nil {
		t.Fatalf("committing Run with budget returned %v", err)
	}
}

// TestRunUpgradeCountsAgainstBudget pins the documented MaxAttempts
// accounting: the internal read-only→update upgrade restart consumes an
// attempt and is visible to OnAbort.
func TestRunUpgradeCountsAgainstBudget(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 14})
	site := rt.RegisterSite("up")
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 0)
		return nil
	})
	var sawUpgrade bool
	err := rt.Run(func(tx *stm.Tx) error {
		tx.Store(a, 1) // write in a read-only transaction: upgrade restart
		return nil
	},
		stm.ReadOnly(),
		stm.MaxAttempts(2),
		stm.OnAbort(func(c stm.AbortCause, _ int) {
			if c == stm.AbortUpgrade {
				sawUpgrade = true
			}
		}))
	if err != nil {
		t.Fatalf("upgraded Run failed: %v", err)
	}
	if !sawUpgrade {
		t.Fatal("OnAbort did not observe the upgrade restart")
	}
	rt.Run(func(tx *stm.Tx) error {
		if got := tx.Load(a); got != 1 {
			t.Fatalf("upgraded store lost: %d", got)
		}
		return nil
	}, stm.ReadOnly())
}

// TestSnapshotHistoryConflict covers the Config.Default/SnapshotHistory
// precedence contract: filling an unset HistCap is fine, agreeing values
// are fine, conflicting nonzero values are a construction error.
func TestSnapshotHistoryConflict(t *testing.T) {
	def := stm.DefaultPartConfig()
	def.HistCap = 128
	if _, err := stm.New(stm.Config{HeapWords: 1 << 14, Default: &def, SnapshotHistory: 256}); err == nil {
		t.Fatal("conflicting HistCap/SnapshotHistory accepted")
	}
	rt, err := stm.New(stm.Config{HeapWords: 1 << 14, Default: &def, SnapshotHistory: 128})
	if err != nil {
		t.Fatalf("agreeing HistCap/SnapshotHistory rejected: %v", err)
	}
	if cfg, _ := rt.PartitionConfig(stm.GlobalPartition); cfg.HistCap != 128 {
		t.Fatalf("HistCap = %d, want 128", cfg.HistCap)
	}
	def2 := stm.DefaultPartConfig() // HistCap unset: SnapshotHistory fills it
	rt2, err := stm.New(stm.Config{HeapWords: 1 << 14, Default: &def2, SnapshotHistory: 64})
	if err != nil {
		t.Fatalf("merge rejected: %v", err)
	}
	if cfg, _ := rt2.PartitionConfig(stm.GlobalPartition); cfg.HistCap != 64 {
		t.Fatalf("HistCap = %d, want 64", cfg.HistCap)
	}
	// And the caller's struct is never written to.
	if def.HistCap != 128 || def2.HistCap != 0 {
		t.Fatalf("New mutated the caller's Config.Default (HistCap %d, %d)", def.HistCap, def2.HistCap)
	}
}
