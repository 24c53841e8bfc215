package stm

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/wal"
)

// Durability selects how hard a commit's redo record is when Run returns.
type Durability = wal.Durability

const (
	// DurabilityOff runs without a redo log (the default).
	DurabilityOff = wal.Off
	// DurabilityAsync tees every commit into the log; the group-commit
	// flusher fsyncs in the background. Run returns before the record is
	// durable, so a crash can lose the last group-commit interval.
	DurabilityAsync = wal.Async
	// DurabilitySync additionally parks each committing Run until its
	// record is fsynced: once Run returns nil, the commit survives any
	// crash. A commit whose record cannot become durable (the log died or
	// closed first) still applies in memory but surfaces as ErrNotDurable.
	// A Run under DeferDurable leaves that wait to its caller.
	DurabilitySync = wal.Sync
)

// ErrNotDurable is the sentinel matched (via errors.Is) by the error Run
// returns when a DurabilitySync commit applied in memory but its redo
// record never became durable — the log was dead or closed at publish
// time, or went down before the fsync. The heap mutation is not rolled
// back; treat the commit as applied-but-unacknowledged. The concrete
// error is a *NotDurableError.
var ErrNotDurable = core.ErrNotDurable

// NotDurableError is the concrete error behind ErrNotDurable, carrying
// the log sequence the commit claimed (0 when the publish was refused).
type NotDurableError = core.NotDurableError

// WALConfig configures the durable redo log (Config.WAL).
type WALConfig struct {
	// Dir is the log directory (created if missing). It holds rotating
	// segment files plus at most one CHECKPOINT image.
	Dir string
	// Durability selects the commit contract. DurabilityOff with a
	// non-nil WALConfig is promoted to DurabilityAsync — attach a config
	// only when you want the log.
	Durability Durability
	// GroupCommitInterval is the flusher's coalescing window (default
	// 200µs): commits arriving within one window share one fsync.
	GroupCommitInterval time.Duration
	// SegmentBytes rotates the active segment past this size (default
	// 64 MiB).
	SegmentBytes int64
	// RingSize is the publish queue's capacity in records (default 8192,
	// rounded up to a power of two).
	RingSize int
}

// Aliased WAL observability types.
type (
	// WALStats is a momentary reading of the redo log's counters.
	WALStats = wal.Stats
	// RecoveryInfo summarizes what startup recovery found and repaired.
	RecoveryInfo = wal.RecoveryInfo
	// WALLog is the underlying redo log (exposed for tests and torture
	// harnesses; normal code only needs Config.WAL and Checkpoint).
	WALLog = wal.Log
)

// attachWAL recovers the heap from cfg.Dir and attaches the redo log to
// the engine. Order matters: checkpoint image first, then the log tail
// replayed over it, then the commit clock re-seeded past everything
// recovered — only then may transactional traffic start.
func (r *Runtime) attachWAL(cfg *WALConfig) error {
	cp, err := wal.ReadCheckpoint(cfg.Dir)
	if err != nil {
		return fmt.Errorf("stm: wal recovery: %w", err)
	}
	var cpSeq, clockTarget uint64
	if cp != nil {
		if uint(cp.BlockShift) != r.arena.BlockShift() {
			return fmt.Errorf("stm: wal recovery: checkpoint block shift %d, arena configured with %d",
				cp.BlockShift, r.arena.BlockShift())
		}
		// Re-register the checkpoint's sites in id order so the SiteIDs
		// embedded in its block table (and in grab records) stay valid.
		for i, name := range cp.Sites {
			if id := r.arena.Sites().Register(name); id != SiteID(i) {
				return fmt.Errorf("stm: wal recovery: site %q registered as %d, checkpoint has %d — register custom sites only after New",
					name, id, i)
			}
		}
		bs := make([]memory.SiteID, len(cp.BlockSite))
		for i, sid := range cp.BlockSite {
			bs[i] = memory.SiteID(sid)
		}
		if err := r.arena.RestoreSnapshot(cp.NextBlock, bs, cp.Words); err != nil {
			return fmt.Errorf("stm: wal recovery: %w", err)
		}
		cpSeq = cp.LastSeq
		clockTarget = cp.Clock
	}
	log, info, err := wal.Open(cfg.Dir, wal.Options{
		GroupCommitInterval: cfg.GroupCommitInterval,
		SegmentBytes:        cfg.SegmentBytes,
		RingSize:            cfg.RingSize,
		StartSeq:            cpSeq,
	})
	if err != nil {
		return fmt.Errorf("stm: wal recovery: %w", err)
	}
	st, err := log.Replay(cpSeq, func(rec wal.Record) error {
		switch rec.Kind {
		case wal.KindGrab:
			site := r.arena.Sites().Register(rec.Site)
			return r.arena.ApplyGrab(rec.FirstBlock, rec.Blocks, site)
		case wal.KindCommit:
			for _, op := range rec.Ops {
				r.arena.Store(memory.Addr(op.Addr), op.Val)
			}
		}
		return nil
	})
	if err != nil {
		log.Abandon()
		return fmt.Errorf("stm: wal recovery: %w", err)
	}
	if st.MaxVer > clockTarget {
		clockTarget = st.MaxVer
	}
	// Re-seed commit time strictly past everything recovered, so no new
	// commit can mint a version a replayed record already used.
	if now := r.eng.Clock(); clockTarget > now {
		r.eng.AdvanceClock(clockTarget - now)
	}
	r.sync = cfg.Durability == DurabilitySync
	r.eng.SetWAL(log, r.sync)
	r.wal = log
	r.recovery = info
	return nil
}

// Recovery returns what startup recovery found in the WAL directory (nil
// without Config.WAL).
func (r *Runtime) Recovery() *RecoveryInfo { return r.recovery }

// WAL exposes the underlying redo log (nil without Config.WAL); intended
// for tests and crash-torture harnesses.
func (r *Runtime) WAL() *WALLog { return r.wal }

// Durability reports the commit contract in force: DurabilityOff
// without a redo log (or after Close), DurabilitySync when every
// committing Run parks until its record is fsynced, DurabilityAsync
// otherwise.
func (r *Runtime) Durability() Durability {
	switch {
	case r.wal == nil:
		return DurabilityOff
	case r.sync:
		return DurabilitySync
	}
	return DurabilityAsync
}

// WaitDurable blocks until the redo log's durable watermark reaches seq —
// the wait a DeferDurable Run left to its caller — and returns the
// watermark: every sequence at or below it is fsynced. ok is false when
// the log died or closed (or there is none) before seq became durable;
// the returned watermark is then final, and a commit above it must be
// reported as ErrNotDurable, never acknowledged. Like Run, it must not
// race Close.
func (r *Runtime) WaitDurable(seq uint64) (durable uint64, ok bool) {
	if r.wal == nil {
		return 0, false
	}
	ok = r.wal.WaitDurable(seq)
	return r.wal.DurableSeq(), ok
}

// WALStats returns the redo log's counters; ok is false without
// Config.WAL.
func (r *Runtime) WALStats() (WALStats, bool) {
	if r.wal == nil {
		return WALStats{}, false
	}
	return r.wal.Stats(), true
}

// Checkpoint writes a snapshot-consistent image of the heap into the WAL
// directory and truncates the log segments it makes dead. Concurrent
// transactions keep running — the image is taken online at a pinned
// snapshot when the engine can prove consistency, and under a brief
// stop-the-world gate otherwise; online reports which. Call it
// periodically to bound recovery time and log size.
func (r *Runtime) Checkpoint() (online bool, err error) {
	if r.wal == nil {
		return false, fmt.Errorf("stm: Checkpoint requires Config.WAL")
	}
	return r.eng.Checkpoint(r.wal)
}

// Close flushes and closes the redo log (no-op without Config.WAL). New
// commits after Close are no longer logged; call it only once transaction
// traffic has stopped (a DurabilitySync Run racing Close can observe the
// closed log and return ErrNotDurable).
func (r *Runtime) Close() error {
	if r.wal == nil {
		return nil
	}
	r.eng.SetWAL(nil, false)
	err := r.wal.Close()
	r.wal = nil
	return err
}
