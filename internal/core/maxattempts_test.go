package core

import (
	"errors"
	"testing"

	"repro/internal/memory"
)

// TestMaxAttemptsErrorLockConflict: a budget exhausted against a held
// encounter-time lock must surface a *MaxAttemptsError that matches the
// ErrMaxAttempts sentinel and carries the lock-conflict cause.
func TestMaxAttemptsErrorLockConflict(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.CM = CMSuicide // abort immediately on lock conflict, no waiting
	e := newTestEngine(t, cfg)

	setup := e.BorrowThread()
	var a memory.Addr
	setup.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	e.ReturnThread(setup)

	held := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := e.BorrowThread()
		defer e.ReturnThread(th)
		th.Run(func(tx *Tx) error {
			tx.Store(a, 1) // encounter-time lock taken here
			close(held)
			<-release // park holding the lock
			return nil
		})
	}()
	<-held

	th := e.BorrowThread()
	defer e.ReturnThread(th)
	err := th.Run(func(tx *Tx) error {
		tx.Store(a, 2)
		return nil
	}, MaxAttempts(3))
	close(release)
	<-done

	if !errors.Is(err, ErrMaxAttempts) {
		t.Fatalf("err = %v, want errors.Is(_, ErrMaxAttempts)", err)
	}
	var mae *MaxAttemptsError
	if !errors.As(err, &mae) {
		t.Fatalf("err = %T, want *MaxAttemptsError", err)
	}
	if mae.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", mae.Attempts)
	}
	if mae.Cause != AbortLockedOnWrite {
		t.Errorf("Cause = %s, want %s", mae.Cause, AbortLockedOnWrite)
	}
}

// TestMaxAttemptsErrorKilled: the same budget exhausted by contention-
// manager kills must report AbortKilled as the cause — the two livelock
// flavors are distinguishable from the error alone.
func TestMaxAttemptsErrorKilled(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	setup := e.BorrowThread()
	var a memory.Addr
	setup.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		return nil
	})
	e.ReturnThread(setup)

	th := e.BorrowThread()
	defer e.ReturnThread(th)
	err := th.Run(func(tx *Tx) error {
		tx.th.kill() // simulate a CM kill landing mid-attempt
		tx.Store(a, 1)
		return nil
	}, MaxAttempts(2))

	if !errors.Is(err, ErrMaxAttempts) {
		t.Fatalf("err = %v, want errors.Is(_, ErrMaxAttempts)", err)
	}
	var mae *MaxAttemptsError
	if !errors.As(err, &mae) {
		t.Fatalf("err = %T, want *MaxAttemptsError", err)
	}
	if mae.Cause != AbortKilled {
		t.Errorf("Cause = %s, want %s", mae.Cause, AbortKilled)
	}
	if mae.Error() == "" || mae.Attempts != 2 {
		t.Errorf("unexpected error contents: %q, attempts %d", mae.Error(), mae.Attempts)
	}
}
