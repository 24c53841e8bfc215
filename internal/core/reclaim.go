package core

// This file is the engine-level face of epoch-based memory reclamation:
// the horizon computed from the published-reader table (internal/epoch),
// the aggregate reclamation statistics, and the maintenance entry point
// (ReclaimNow) that tests and servers drive.
//
// The protocol pieces live elsewhere: tx.begin publishes a clock stamp
// before sampling its snapshot, tx.finish clears it and retires
// commit-time frees at a post-commit clock reading (tx.go), and the limbo
// lists that hold retired objects until the horizon passes belong to the
// allocators (internal/memory).

import "repro/internal/epoch"

// HorizonIdle is the horizon reading when no transaction is live anywhere:
// everything retired is immediately reclaimable.
const HorizonIdle = epoch.Idle

// Horizon returns the global reclamation horizon: the minimum published
// begin stamp over all live transactions, or HorizonIdle when none is
// active. An object retired at stamp R may be recycled once Horizon() > R
// — every live reader then provably began after the freeing commit
// completed, so no snapshot it reads at (pinned or extended) can reach
// the object.
func (e *Engine) Horizon() uint64 { return e.epochs.Horizon() }

// ReclaimStats is a momentary reading of the engine's reclamation state.
type ReclaimStats struct {
	// Horizon is the minimum live begin stamp (HorizonIdle when no
	// transaction is running).
	Horizon uint64
	// Ceiling is the commit clock's current reading, the reference point
	// for lag.
	Ceiling uint64
	// HorizonLag is how far the oldest live reader's stamp trails the
	// commit clock (0 when idle): the age, in commit ticks, of the reader
	// currently gating all reclamation. A lag that keeps growing while
	// limbo is non-empty is a horizon stall — typically one parked
	// long-running snapshot transaction.
	HorizonLag uint64
	// RetiredWords and ReclaimedWords are the cumulative arena counters;
	// LimboWords is their difference, the words currently awaiting the
	// horizon. At quiesce (no live readers, after a ReclaimNow) Retired
	// equals Reclaimed.
	RetiredWords   uint64
	ReclaimedWords uint64
	LimboWords     uint64
}

// ReclaimStats returns the engine's current reclamation statistics.
func (e *Engine) ReclaimStats() ReclaimStats {
	h := e.epochs.Horizon()
	c := e.Clock()
	var lag uint64
	if h < c { // h == HorizonIdle exceeds any real clock: lag 0
		lag = c - h
	}
	m := e.arena.ReclaimStats()
	return ReclaimStats{
		Horizon:        h,
		Ceiling:        c,
		HorizonLag:     lag,
		RetiredWords:   m.RetiredWords,
		ReclaimedWords: m.ReclaimedWords,
		LimboWords:     m.LimboWords,
	}
}

// ReclaimNow sweeps the horizon once and drains every idle Thread's limbo
// against it, returning the words reclaimed. Commit paths already reclaim
// incrementally (one sweep per ReclaimBatch retires); this is the
// quiesce/maintenance entry point — call it after a churn phase to verify
// RetiredWords == ReclaimedWords, or periodically from a server's
// housekeeping loop. A Thread busy at the call keeps its limbo until its
// next commit-path reclaim or a later ReclaimNow. Must not be called from
// inside a transaction.
func (e *Engine) ReclaimNow() uint64 {
	h := e.epochs.Horizon()
	var claimed []*Thread
	for {
		th := e.claimIdle()
		if th == nil {
			break
		}
		claimed = append(claimed, th)
	}
	var words uint64
	for _, th := range claimed {
		words += th.alloc.Reclaim(h)
	}
	for _, th := range claimed {
		e.ReturnThread(th)
	}
	return words
}
