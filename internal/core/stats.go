package core

import (
	"sync/atomic"

	"repro/internal/stats"
)

// PartThreadStats are one thread's counters for one partition: a single
// writer, the owning thread, and concurrent readers (the tuner's snapshot
// aggregation, StatsSnapshot) — hence atomics. An atomic add is a locked
// instruction, some twenty cycles and a store-buffer drain even on a line
// nobody else touches, so the owner does not pay one per access: an attempt
// accumulates its loads, stores, snapshot hits and misses and its wait
// accounting in plain words on its touchRec, and Tx.flushStats adds them
// here once, when the attempt finishes — committed or aborted alike,
// together with its outcome. Totals are exactly what per-access adds give.
//
// What changes is when they show: a concurrent reader sees an attempt's
// accesses all at once, at its end, and nothing of an attempt still
// running — a 32 k-word scan reports its 32 k loads when it commits. Every
// counter is still monotone, and a Run's counters are all visible by the
// time Run returns. The one exception is deliberate: a wait that escalates
// past the spin budget flushes its wait accounting at every yield and park
// (Tx.stall), so a monitor sees a stuck waiter while it is stuck.
type PartThreadStats struct {
	Loads  atomic.Uint64
	Stores atomic.Uint64
	// UpdateCommits counts committed transactions that wrote at least one
	// word of this partition, ROCommits those that only read it; a commit
	// is one or the other, so PartStats.Commits is their sum.
	UpdateCommits atomic.Uint64
	ROCommits     atomic.Uint64
	Aborts        [NumAbortCauses]atomic.Uint64
	// WaitCycles approximates time spent spinning on this partition's
	// orecs (CM wait-loop iterations).
	WaitCycles atomic.Uint64
	// Yields counts wait-loop iterations that escalated past the spin
	// budget into a scheduler yield (runtime.Gosched), and Parks those
	// that escalated further into a timed sleep — the scheduler-
	// cooperation signals. Both are subsets of WaitCycles.
	Yields atomic.Uint64
	Parks  atomic.Uint64
	// SpinNs/YieldNs/ParkNs break wait time down by phase: nanoseconds
	// spent in wait-loop iterations that stayed on-CPU (spin), yielded the
	// processor, or slept (park) — the time-domain companions of
	// WaitCycles/Yields/Parks (see the attribution note in wait.go).
	SpinNs  atomic.Uint64
	YieldNs atomic.Uint64
	ParkNs  atomic.Uint64
	// Lat is this thread's commit-latency histogram for the partition:
	// every committed attempt that touched the partition records its
	// attempt duration here while the engine's latency tracking is enabled
	// (Engine.SetLatencyTracking). Owner-recorded — the per-worker shard
	// of the engine-wide histogram — so the hot-path cost is one increment
	// on an uncontended line; monitors merge shards via accumulateInto.
	Lat stats.Histogram
	// SnapHits counts snapshot-mode reads served from the partition's
	// multi-version store (a stale orec whose value at the pinned snapshot
	// was reconstructed instead of extending or aborting).
	SnapHits atomic.Uint64
	// SnapMisses counts snapshot-mode reads of a stale orec the store
	// could not serve — the covering record was evicted, or the partition
	// has no store at all — forcing the validate/extend fallback. It is
	// the partition's unserved snapshot demand.
	SnapMisses atomic.Uint64
}

// accumulateInto adds this block's current counter values into out.
func (s *PartThreadStats) accumulateInto(out *PartStats) {
	out.Loads += s.Loads.Load()
	out.Stores += s.Stores.Load()
	u, r := s.UpdateCommits.Load(), s.ROCommits.Load()
	out.Commits += u + r
	out.UpdateCommits += u
	out.ROCommits += r
	out.WaitCycles += s.WaitCycles.Load()
	out.Yields += s.Yields.Load()
	out.Parks += s.Parks.Load()
	out.SpinNs += s.SpinNs.Load()
	out.YieldNs += s.YieldNs.Load()
	out.ParkNs += s.ParkNs.Load()
	out.SnapHits += s.SnapHits.Load()
	out.SnapMisses += s.SnapMisses.Load()
	out.Latency = out.Latency.Add(s.Lat.Snapshot())
	for i := range s.Aborts {
		out.Aborts[i] += s.Aborts[i].Load()
	}
}

// PartStats is an aggregated view of one partition's counters.
type PartStats struct {
	Part          PartID
	Name          string
	Loads         uint64
	Stores        uint64
	Commits       uint64
	UpdateCommits uint64
	ROCommits     uint64
	Aborts        [NumAbortCauses]uint64
	WaitCycles    uint64
	Yields        uint64
	Parks         uint64
	SpinNs        uint64
	YieldNs       uint64
	ParkNs        uint64
	SnapHits      uint64
	SnapMisses    uint64
	// Latency is the partition's commit-latency histogram (attempt begin
	// to commit, per committed attempt touching the partition), merged
	// across thread shards. Empty (Counts == nil) unless latency tracking
	// is enabled (Engine.SetLatencyTracking).
	Latency stats.HistSnapshot
}

// add accumulates o's counters into s (identity fields are untouched).
func (s *PartStats) add(o *PartStats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Commits += o.Commits
	s.UpdateCommits += o.UpdateCommits
	s.ROCommits += o.ROCommits
	s.WaitCycles += o.WaitCycles
	s.Yields += o.Yields
	s.Parks += o.Parks
	s.SpinNs += o.SpinNs
	s.YieldNs += o.YieldNs
	s.ParkNs += o.ParkNs
	s.SnapHits += o.SnapHits
	s.SnapMisses += o.SnapMisses
	s.Latency = s.Latency.Add(o.Latency)
	for i := range s.Aborts {
		s.Aborts[i] += o.Aborts[i]
	}
}

// TotalAborts sums all abort causes.
func (s *PartStats) TotalAborts() uint64 {
	var t uint64
	for _, a := range s.Aborts {
		t += a
	}
	return t
}

// AbortRate returns aborts/(commits+aborts), or 0 when idle.
func (s *PartStats) AbortRate() float64 {
	a, c := s.TotalAborts(), s.Commits
	if a+c == 0 {
		return 0
	}
	return float64(a) / float64(a+c)
}

// UpdateRatio returns the fraction of committed transactions touching the
// partition that wrote to it.
func (s *PartStats) UpdateRatio() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.UpdateCommits) / float64(s.Commits)
}

// Sub returns s - old, counter-wise; used by the tuner to derive per-epoch
// deltas from monotonic totals.
func (s PartStats) Sub(old PartStats) PartStats {
	d := s
	d.Loads -= old.Loads
	d.Stores -= old.Stores
	d.Commits -= old.Commits
	d.UpdateCommits -= old.UpdateCommits
	d.ROCommits -= old.ROCommits
	d.WaitCycles -= old.WaitCycles
	d.Yields -= old.Yields
	d.Parks -= old.Parks
	d.SpinNs -= old.SpinNs
	d.YieldNs -= old.YieldNs
	d.ParkNs -= old.ParkNs
	d.SnapHits -= old.SnapHits
	d.SnapMisses -= old.SnapMisses
	d.Latency = s.Latency.Sub(old.Latency)
	for i := range d.Aborts {
		d.Aborts[i] -= old.Aborts[i]
	}
	return d
}
