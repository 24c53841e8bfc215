package core

import "fmt"

// AbortCause classifies why a transaction attempt aborted. Per-partition
// abort-cause counters are a key input to the runtime tuner (a partition
// aborting mostly on validation wants visible reads; one aborting on lock
// conflicts wants finer granularity).
type AbortCause uint8

const (
	// AbortNone means the transaction did not abort (slot for stats).
	AbortNone AbortCause = iota
	// AbortLockedOnRead: a read found the orec write-locked by another
	// transaction and CM decided against waiting.
	AbortLockedOnRead
	// AbortLockedOnWrite: a write found the orec locked by another
	// transaction.
	AbortLockedOnWrite
	// AbortValidation: read-set validation or snapshot extension failed.
	AbortValidation
	// AbortKilled: a writer draining the visible readers of its stripe
	// (WriterKillsReaders) killed us.
	AbortKilled
	// AbortReaderWall: a writer yielded to visible readers
	// (WriterYieldsToReaders) and aborted itself.
	AbortReaderWall
	// AbortUpgrade: a transaction started read-only attempted a write and
	// restarts in update mode.
	AbortUpgrade
	// AbortExplicit: user code requested an abort.
	AbortExplicit

	// NumAbortCauses is the size of abort-cause counter arrays.
	NumAbortCauses
)

func (c AbortCause) String() string {
	switch c {
	case AbortNone:
		return "none"
	case AbortLockedOnRead:
		return "locked-on-read"
	case AbortLockedOnWrite:
		return "locked-on-write"
	case AbortValidation:
		return "validation"
	case AbortKilled:
		return "killed"
	case AbortReaderWall:
		return "reader-wall"
	case AbortUpgrade:
		return "upgrade"
	case AbortExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("AbortCause(%d)", uint8(c))
	}
}

// abortSignal is the panic payload used internally to unwind a transaction
// attempt. It never escapes the engine: Run recovers it and retries.
// Using panic/recover for the abort path keeps user code free of
// per-operation error plumbing, which is the established pattern for STM
// retry loops.
type abortSignal struct {
	cause AbortCause
}

// ErrExplicitAbort is an error for fn to return when it wants Run to
// discard the transaction without retrying (Tx.Abort retries instead).
var ErrExplicitAbort = fmt.Errorf("stm: transaction explicitly aborted")
