package main

import (
	"os"
	"runtime"

	"repro/internal/server"
	"repro/stm"
)

// This file is the only place that reads the repository's statistics
// structs (PartStats, PoolStats, SnapshotHistoryStats, ReclaimStats,
// WALStats, LatencyStats, server stats) and runtime.MemStats. When those
// types are collapsed into one surface, this adapter is re-pointed and
// nothing else in the benchmark changes.

// Monotonic counters, read before and after a measured phase.
const (
	cCommits = iota
	cUpdateCommits
	cAborts
	cLoads
	cStores
	cWaitNs
	cSnapHits
	cSnapMisses
	cPoolMisses
	cPoolWaits
	cPoolHandoffs
	cMvAppends
	cMvHits
	cMvTruncMisses
	cMvSteals
	cMvChainSteps
	cMvRangeReads
	cMvRangeFast
	cReclaimedWords
	cWalAppends
	cWalBytes
	cWalFsyncs
	cWalGroups
	cWalGrouped
	cWalStalls
	cWalSyncWaits
	cWalSyncParks
	cSrvTxns
	cSrvSnapTxns
	cSrvAborts
	cSrvSnapAborts
	cSrvBad
	cGoAllocBytes
	cGoMallocs
	cGoGCCycles
	cGoGCPauseNs
	numCounters
)

// counters is one reading (or, filled by accumulate, a delta) of every
// monotonic counter plus the commit-latency histogram.
type counters struct {
	v   [numCounters]uint64
	lat stm.LatencyStats
}

// readCounters takes a reading. srv may be nil (in-process workloads).
func readCounters(rt *stm.Runtime, srv *server.Server) counters {
	var c counters
	for _, p := range rt.Stats() {
		c.v[cCommits] += p.Commits
		c.v[cUpdateCommits] += p.UpdateCommits
		c.v[cAborts] += p.TotalAborts()
		c.v[cLoads] += p.Loads
		c.v[cStores] += p.Stores
		c.v[cWaitNs] += p.SpinNs + p.YieldNs + p.ParkNs
		c.v[cSnapHits] += p.SnapHits
		c.v[cSnapMisses] += p.SnapMisses
		h := rt.SnapshotHistory(p.Part)
		c.v[cMvAppends] += h.Appends
		c.v[cMvHits] += h.Hits
		c.v[cMvTruncMisses] += h.TruncMisses
		c.v[cMvSteals] += h.Steals
		c.v[cMvChainSteps] += h.ChainSteps
		c.v[cMvRangeReads] += h.RangeReads
		c.v[cMvRangeFast] += h.RangeFastHits
	}
	c.lat = rt.LatencyStats()
	pool := rt.PoolStats()
	c.v[cPoolMisses] = pool.Misses
	c.v[cPoolWaits] = pool.Waits
	c.v[cPoolHandoffs] = pool.Handoffs
	c.v[cReclaimedWords] = rt.ReclaimStats().ReclaimedWords
	if w, ok := rt.WALStats(); ok {
		c.v[cWalAppends] = w.Appends
		c.v[cWalBytes] = w.AppendedBytes
		c.v[cWalFsyncs] = w.Fsyncs
		c.v[cWalGroups] = w.GroupCommits
		c.v[cWalGrouped] = w.GroupedRecords
		c.v[cWalStalls] = w.PublishStalls
		c.v[cWalSyncWaits] = w.SyncWaits
		c.v[cWalSyncParks] = w.SyncParks
	}
	if srv != nil {
		s := srv.Stats()
		c.v[cSrvTxns] = s.Txns
		c.v[cSrvSnapTxns] = s.SnapshotTxns
		c.v[cSrvAborts] = s.TxnAborts
		c.v[cSrvSnapAborts] = s.SnapshotAborts
		c.v[cSrvBad] = s.BadRequests
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.v[cGoAllocBytes] = m.TotalAlloc
	c.v[cGoMallocs] = m.Mallocs
	c.v[cGoGCCycles] = uint64(m.NumGC)
	c.v[cGoGCPauseNs] = m.PauseTotalNs
	return c
}

// accumulate adds the change from before to after into c.
func (c *counters) accumulate(before, after counters) {
	for i := range c.v {
		c.v[i] += after.v[i] - before.v[i]
	}
	c.lat = c.lat.Add(after.lat.Sub(before.lat))
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// layerMetrics turns a delta over ops primary operations into the
// counter-derived per-layer metrics. userBytes is the payload one
// durable commit carries (for wal.write_amp).
func (c *counters) layerMetrics(r *result, ops uint64, userBytes float64) {
	v := &c.v
	m := r.metrics
	m["core.commit_p50_ns"] = float64(c.lat.Quantile(0.50))
	m["core.commit_p99_ns"] = float64(c.lat.Quantile(0.99))
	m["core.attempts_per_commit"] = share(v[cCommits]+v[cAborts], v[cCommits])
	m["core.abort_share"] = share(v[cAborts], v[cCommits]+v[cAborts])
	m["core.wait_ns_per_commit"] = share(v[cWaitNs], v[cCommits])
	m["core.loads_per_commit"] = share(v[cLoads], v[cCommits])
	m["core.stores_per_commit"] = share(v[cStores], v[cCommits])
	m["pool.miss_share"] = share(v[cPoolMisses], ops)
	m["pool.waits"] = float64(v[cPoolWaits])
	m["pool.handoffs"] = float64(v[cPoolHandoffs])

	m["mvstore.appends_per_update"] = share(v[cMvAppends], v[cUpdateCommits])
	m["mvstore.snap_hit_share"] = share(v[cSnapHits], v[cSnapHits]+v[cSnapMisses])
	m["mvstore.range_fast_share"] = share(v[cMvRangeFast], v[cMvRangeReads])
	m["mvstore.trunc_misses"] = float64(v[cMvTruncMisses])
	m["mvstore.chain_steps_per_hit"] = share(v[cMvChainSteps], v[cMvHits])
	m["mvstore.steals"] = float64(v[cMvSteals])

	m["reclaim.reclaimed_words_per_op"] = share(v[cReclaimedWords], ops)

	m["wal.group_size"] = share(v[cWalGrouped], v[cWalGroups])
	m["wal.fsyncs_per_commit"] = share(v[cWalFsyncs], v[cWalAppends])
	m["wal.bytes_per_commit"] = share(v[cWalBytes], v[cWalAppends])
	if userBytes > 0 {
		m["wal.write_amp"] = m["wal.bytes_per_commit"] / userBytes
	}
	m["wal.publish_stalls"] = float64(v[cWalStalls])
	m["wal.sync_park_share"] = share(v[cWalSyncParks], v[cWalSyncWaits])

	m["server.txn_abort_share"] = share(v[cSrvAborts], v[cSrvTxns])
	m["server.snapshot_abort_share"] = share(v[cSrvSnapAborts], v[cSrvSnapTxns])
	m["server.bad_requests"] = float64(v[cSrvBad])

	m["go.alloc_bytes_per_op"] = share(v[cGoAllocBytes], ops)
	m["go.mallocs_per_op"] = share(v[cGoMallocs], ops)
	m["go.gc_cycles"] = float64(v[cGoGCCycles])
	m["go.gc_pause_ms"] = float64(v[cGoGCPauseNs]) / 1e6
}

// endGauges records the end-of-run state readings: space a leak would
// grow, and how far reclamation trails.
func endGauges(r *result, rt *stm.Runtime) {
	rs := rt.ReclaimStats()
	r.metrics["reclaim.limbo_words_end"] = float64(rs.LimboWords)
	r.metrics["reclaim.horizon_lag_end"] = float64(rs.HorizonLag)
	r.metrics["heap.blocks_in_use_end"] = float64(rt.HeapInUseBlocks())
}

// visibleParts counts partitions the tuner left on visible reads.
func visibleParts(rt *stm.Runtime) int {
	n := 0
	for id := 0; id < rt.NumPartitions(); id++ {
		if cfg, err := rt.PartitionConfig(stm.PartID(id)); err == nil && cfg.Read == stm.VisibleReads {
			n++
		}
	}
	return n
}

// dirBytes sums the sizes of the regular files in dir (the redo log's
// footprint on disk).
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
