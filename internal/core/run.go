package core

import (
	"errors"
	"fmt"
)

// ErrMaxAttempts is the sentinel for a MaxAttempts budget exhausted before
// the transaction commits. Run returns a *MaxAttemptsError carrying the
// final abort cause; match with errors.Is(err, ErrMaxAttempts) and dig the
// cause out with errors.As. The attempt that hit the limit has been rolled
// back completely; the caller may simply call Run again to keep trying.
var ErrMaxAttempts = errors.New("core: transaction aborted more than MaxAttempts times")

// MaxAttemptsError is the concrete error Run returns when a MaxAttempts
// budget runs out. It records how many attempts were made and why the last
// one aborted — so a caller can tell a lock-conflict livelock from, say,
// contention-manager kills — while still matching the ErrMaxAttempts
// sentinel through errors.Is.
type MaxAttemptsError struct {
	// Attempts is the number of attempts made (equal to the budget).
	Attempts int
	// Cause is the final attempt's abort cause.
	Cause AbortCause
}

func (e *MaxAttemptsError) Error() string {
	return fmt.Sprintf("core: transaction aborted %d times (last cause: %s)", e.Attempts, e.Cause)
}

// Is makes errors.Is(err, ErrMaxAttempts) succeed on a *MaxAttemptsError.
func (e *MaxAttemptsError) Is(target error) bool { return target == ErrMaxAttempts }

// runCfg is the resolved execution mode of one Run call. The zero value is
// a plain update transaction retried until commit.
type runCfg struct {
	readOnly bool
	snap     bool
	// maxAttempts bounds the number of attempts (0 = retry forever). When
	// the bound is hit Run returns ErrMaxAttempts.
	maxAttempts int
	// onAbort, when set, observes every aborted attempt.
	onAbort func(cause AbortCause, attempt int)
	// deferSeq, when set, receives the sequence of the durability wait Run
	// would have made, instead of Run making it (DeferDurable).
	deferSeq *uint64
}

// TxOpt is a functional option selecting how Run executes a transaction.
// Options compose left to right; conflicting options resolve to the last
// one applied.
type TxOpt func(*runCfg)

// ReadOnly marks the transaction read-only: it takes the read-only fast
// path (no write set, no locks, cheap commit). Its first attempt runs as a
// TL2 read-only transaction: it keeps no read set, every read is checked
// against the snapshot sampled at begin, and the snapshot never moves. A
// read made stale by a later commit aborts that attempt (AbortValidation),
// as does committing one that also read a visible-reads partition, and
// every retry of the Run logs its reads and validates and extends as an
// update transaction does. A write inside the transaction restarts it
// transparently in update mode, so the hint is safe even when occasionally
// wrong.
func ReadOnly() TxOpt {
	return func(c *runCfg) { c.readOnly = true }
}

// Snapshot runs the transaction in snapshot mode (implies ReadOnly): reads
// are answered at the snapshot sampled at begin, with overwritten values
// reconstructed from the touched partitions' multi-version stores
// (PartConfig.HistCap).
//
// The first attempt is pinned: on a partition that has a store it keeps no
// read set — a read is either current at the snapshot or reconstructed at
// it — so it never validates or extends, and under sufficient retention it
// never aborts, no matter how heavy the write traffic. A stale read the
// store cannot serve aborts the pinned attempt (AbortValidation), and the
// Run degrades to logging: every retry records its reads and takes the
// ordinary validate/extend path, so neither correctness nor progress
// depends on retention. Partitions without a store are unaffected — their
// snapshot-mode reads are logged, validated and extended from the first
// attempt — and a write inside the transaction upgrades it to an update
// transaction, as under ReadOnly.
func Snapshot() TxOpt {
	return func(c *runCfg) { c.readOnly, c.snap = true, true }
}

// MaxAttempts bounds the retry loop: after n aborted attempts Run gives up
// and returns ErrMaxAttempts (n <= 0 means unlimited, the default). Every
// abort cause counts against the budget, including explicit Tx.Abort, the
// internal read-only→update upgrade restart, and the unlogged first
// attempt of a ReadOnly or Snapshot Run, which a stale read aborts where a
// logged attempt would have extended — such a Run may spend one attempt
// of its budget on it.
func MaxAttempts(n int) TxOpt {
	return func(c *runCfg) { c.maxAttempts = n }
}

// OnAbort installs a hook observing every aborted attempt: it runs after
// the attempt has been rolled back (outside the transaction — it must not
// touch the Tx) with the abort cause and the 1-based attempt number. Use
// it for backpressure, logging, or tests counting retries.
func OnAbort(fn func(cause AbortCause, attempt int)) TxOpt {
	return func(c *runCfg) { c.onAbort = fn }
}

// DeferDurable hands the Sync durability wait to the caller: where Run
// would park until the commit's redo record is fsynced, it returns at
// commit instead and stores the record's log sequence in *seq. The caller
// owes the wait (wal.Log.WaitDurable on that sequence) before it tells
// anyone the commit happened; until then the commit is applied in memory
// and nothing more. *seq is 0 when Run returns and no wait is owed: the
// transaction wrote nothing, failed, or the engine has no Sync log. A
// commit the log refused outright still returns ErrNotDurable at once.
// Sequences grow in commit order, so one wait on the largest of several
// deferred sequences covers them all. Without this option Run is
// unchanged.
func DeferDurable(seq *uint64) TxOpt {
	return func(c *runCfg) { c.deferSeq = seq }
}

// Run runs fn as a transaction on th, in the mode selected by opts,
// retrying on conflict until it commits (or until a MaxAttempts budget is
// exhausted). With no options it is an update transaction retried forever;
// a non-nil error from fn aborts it (its effects are discarded) and is
// returned. This and Engine.RunPooled, which borrows a Thread and calls
// it, are the only ways to start a transaction.
func (th *Thread) Run(fn func(*Tx) error, opts ...TxOpt) error {
	// Options write into the Thread's scratch: a local whose address is
	// handed to option closures would be heap-allocated on every call. The
	// scratch is cleared again at once, so a pooled Thread does not keep the
	// caller's OnAbort closure alive between Runs.
	for _, o := range opts {
		o(&th.cfg)
	}
	cfg := th.cfg
	th.cfg = runCfg{}
	return th.eng.run(th, cfg, fn)
}
