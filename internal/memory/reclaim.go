package memory

// This file holds the arena-level half of epoch-based reclamation: the
// arena-wide retire/reclaim counters behind ReclaimStats.
//
// The per-thread half — limbo lists, free-list migration — lives on
// Allocator (alloc.go); the horizon itself is owned by the engine, which
// computes it from the internal/epoch table and passes it down.

// ReclaimStats is a momentary reading of the arena's reclamation
// counters. RetiredWords and ReclaimedWords are cumulative and monotonic;
// LimboWords is their difference — the words currently awaiting the
// horizon, across every allocator's limbo.
type ReclaimStats struct {
	RetiredWords   uint64
	ReclaimedWords uint64
	LimboWords     uint64
}

// ReclaimStats returns the arena-wide reclamation counters.
func (a *Arena) ReclaimStats() ReclaimStats {
	// Load reclaimed first: retired only grows, so racing with a concurrent
	// retire/reclaim pair can only over-report LimboWords, never underflow.
	rec := a.reclaimedWords.Load()
	ret := a.retiredWords.Load()
	return ReclaimStats{
		RetiredWords:   ret,
		ReclaimedWords: rec,
		LimboWords:     ret - rec,
	}
}
