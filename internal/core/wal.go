package core

import (
	"errors"
	"fmt"

	"repro/internal/memory"
	"repro/internal/wal"
)

// ErrNotDurable is the sentinel matched (via errors.Is) by the error Run
// returns when a commit under Sync durability applied in memory but its
// redo record never became durable: the log was already dead or closed
// when the commit published, or died (flusher I/O error, Abandon, Close)
// before the record was fsynced. The heap mutation is NOT rolled back —
// memory is ahead of the log — so the caller must treat the commit as
// applied-but-unacknowledged: it may or may not survive a crash.
var ErrNotDurable = errors.New("core: commit applied in memory but its redo record is not durable")

// NotDurableError is the concrete error behind ErrNotDurable.
type NotDurableError struct {
	// Seq is the log sequence the commit claimed, or 0 when the log
	// refused the publish outright (already dead or closed).
	Seq uint64
}

func (e *NotDurableError) Error() string {
	if e.Seq == 0 {
		return "core: commit applied in memory but the redo log was down at publish time"
	}
	return fmt.Sprintf("core: commit applied in memory but its redo record (seq %d) is not durable", e.Seq)
}

// Is makes errors.Is(err, ErrNotDurable) succeed on a *NotDurableError.
func (e *NotDurableError) Is(target error) bool { return target == ErrNotDurable }

// walBox pairs the engine's attached redo log with its durability mode
// (one atomic pointer load per commit when attached, one nil check when
// not — Durability Off costs the commit path nothing else).
type walBox struct {
	log  *wal.Log
	sync bool
}

// SetWAL attaches (or with nil detaches) the durable redo log. While
// attached, every update commit tees its write set into the log — still
// under its write locks, so log order is commit order — and block grabs
// are journaled through the arena's grab hook. With syncCommits set,
// Run parks each committing transaction until its record is fsynced.
func (e *Engine) SetWAL(log *wal.Log, syncCommits bool) {
	if log == nil {
		e.walState.Store(nil)
		e.arena.SetGrabHook(nil)
		return
	}
	sites := e.arena.Sites()
	e.arena.SetGrabHook(func(firstBlock, blocks uint64, site memory.SiteID) {
		log.PublishGrab(firstBlock, blocks, sites.Name(site))
	})
	e.walState.Store(&walBox{log: log, sync: syncCommits})
}

// WALStats returns the attached log's counters (zero Stats, false when
// no log is attached).
func (e *Engine) WALStats() (wal.Stats, bool) {
	if box := e.walState.Load(); box != nil {
		return box.log.Stats(), true
	}
	return wal.Stats{}, false
}

// teeWAL publishes this commit's redo record: the write set's absolute
// post-images plus the commit's write version. It must run inside the
// commit sequence after assignWriteVersions (the record carries this
// commit's version) and before any lock release (the claimed log
// sequence then orders identically with commit order on every written
// address — the property that makes any recovered log prefix a
// consistent cut). The write set is deduplicated by address, so the
// record holds each written word once, with its final value.
func (tx *Tx) teeWAL() {
	box := tx.eng.walState.Load()
	if box == nil || len(tx.ws) == 0 {
		return
	}
	// Remember the exact log/mode this commit tees into: Run's
	// post-commit durability wait keys off it, so a concurrent SetWAL
	// cannot change which commits owe a durability promise.
	tx.walDst = box
	ops := tx.walOps[:0]
	for i := range tx.ws {
		ops = append(ops, wal.Op{Addr: uint64(tx.ws[i].addr), Val: tx.ws[i].val})
	}
	tx.walOps = ops
	tx.walSeq = box.log.PublishCommit(tx.wv, ops)
}
