package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
	"repro/stm"
)

// MVScan quantifies what the multi-version snapshot store buys read-only
// transactions under writer contention: full-array scans run against
// saturating transfer writers, first on the classic validate/extend
// read path (stm.ReadOnly) and then in snapshot mode (stm.Snapshot).
// The validate/extend readers abort and re-extend whenever a writer
// commits under them; the snapshot readers pin their snapshot and
// reconstruct overwritten cells from the store, so with adequate
// retention they must complete with zero aborts. Every scan also checks
// the writers' conservation invariant (transfers keep the array sum
// constant), so a torn snapshot would be caught immediately; a third
// phase measures writer-only throughput with the store attached vs.
// detached to price the commit-path append; and a fourth phase sweeps
// HistCap with deliberately aged snapshots (the ring wraps past the pin
// before the scan runs), demonstrating that a store miss costs the same
// no matter how large the ring — the address-indexed lookup's O(1) miss
// guarantee, where the linear ring scan it replaced paid O(HistCap) per
// missed load.
func MVScan(o Options) (*Report, error) {
	o = o.normalized()
	cells := 256
	histCap := uint(1 << 16) // ample retention: a scan must never outlive the ring
	if o.Quick {
		cells = 128
	}
	writers := o.Threads - 1
	if writers < 1 {
		writers = 1
	}
	if writers > 3 {
		writers = 3 // saturation does not need more; keep readers scheduled
	}
	const initVal = 1 << 20

	type readerResult struct {
		scans, aborts, hits, misses uint64
		sumViolation                uint64
	}

	// runPhase drives `writers` transfer threads — plus, unless
	// writerOnly, one scanning reader — for the measured window; snapshot
	// selects the reader's read path.
	runPhase := func(rt *stm.Runtime, base stm.Addr, snapshot, writerOnly bool) (readerResult, float64) {
		var (
			stop atomic.Bool
			wg   sync.WaitGroup
			res  readerResult
		)
		st0 := rt.PartitionStats(stm.GlobalPartition)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := workload.NewRng(seed)
				for !stop.Load() {
					i := stm.Addr(rng.Intn(cells))
					j := stm.Addr(rng.Intn(cells))
					d := rng.Uint64() % 16
					rt.Run(func(tx *stm.Tx) error {
						vi := tx.Load(base + i)
						if vi < d {
							return nil
						}
						tx.Store(base+i, vi-d)
						tx.Store(base+j, tx.Load(base+j)+d)
						return nil
					})
				}
			}(uint64(w) + 7)
		}
		if writerOnly {
			time.Sleep(o.Warmup + o.PointDuration)
			stop.Store(true)
			wg.Wait()
			d := rt.PartitionStats(stm.GlobalPartition).Sub(st0)
			return res, float64(d.UpdateCommits) / (o.Warmup + o.PointDuration).Seconds()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			mode := stm.ReadOnly()
			if snapshot {
				mode = stm.Snapshot()
			}
			for !stop.Load() {
				attempts := uint64(0)
				rt.Run(func(tx *stm.Tx) error {
					attempts++
					var sum uint64
					for c := 0; c < cells; c++ {
						sum += tx.Load(base + stm.Addr(c))
					}
					if sum != uint64(cells)*initVal {
						res.sumViolation = sum
					}
					return nil
				}, mode)
				res.scans++
				res.aborts += attempts - 1
			}
		}()
		time.Sleep(o.Warmup + o.PointDuration)
		stop.Store(true)
		wg.Wait()
		d := rt.PartitionStats(stm.GlobalPartition).Sub(st0)
		res.hits = d.SnapHits
		res.misses = d.SnapMisses
		return res, float64(d.UpdateCommits) / (o.Warmup + o.PointDuration).Seconds()
	}

	setup := func(hist uint) (*stm.Runtime, stm.Addr) {
		rt := stm.MustNew(stm.Config{
			HeapWords:       1 << 22,
			YieldEveryOps:   o.YieldEveryOps,
			SnapshotHistory: hist,
		})
		var base stm.Addr
		rt.Run(func(tx *stm.Tx) error {
			base = tx.Alloc(stm.SiteID(0), cells)
			for c := 0; c < cells; c++ {
				tx.Store(base+stm.Addr(c), initVal)
			}
			return nil
		})
		return rt, base
	}

	var out strings.Builder
	out.WriteString(fmt.Sprintf("Read-only scans (%d cells) under %d saturating transfer writers\n", cells, writers))
	out.WriteString("reader      scans  ro-aborts  snap-hits  snap-misses  writer-commits/s\n")

	rt, base := setup(histCap)
	baseRes, baseWps := runPhase(rt, base, false, false)
	snapRes, wps := runPhase(rt, base, true, false)
	for _, r := range []struct {
		name string
		r    readerResult
		wps  float64
	}{{"validate", baseRes, baseWps}, {"snapshot", snapRes, wps}} {
		out.WriteString(fmt.Sprintf("%-11s %-6d %-10d %-10d %-12d %.0f\n",
			r.name, r.r.scans, r.r.aborts, r.r.hits, r.r.misses, r.wps))
	}
	if baseRes.sumViolation != 0 || snapRes.sumViolation != 0 {
		return nil, fmt.Errorf("mvscan: scan observed sum %d/%d, want %d (torn snapshot)",
			baseRes.sumViolation, snapRes.sumViolation, uint64(cells)*initVal)
	}
	if snapRes.aborts != 0 {
		return nil, fmt.Errorf("mvscan: %d snapshot-mode aborts with ample retention (want 0)", snapRes.aborts)
	}
	if snapRes.scans == 0 {
		return nil, fmt.Errorf("mvscan: no snapshot scans completed")
	}

	// Phase 3: writer-only throughput with and without the store — the
	// price of the commit-path append when snapshot mode is off vs. on.
	measureWriters := func(hist uint) float64 {
		wrt, wbase := setup(hist)
		_, wps := runPhase(wrt, wbase, false, true)
		return wps
	}
	offTput := measureWriters(0)
	onTput := measureWriters(histCap)
	ratio := safeDiv(onTput, offTput)
	out.WriteString(fmt.Sprintf("\nwriter-only update commits/s: store off %.0f, store on %.0f (on/off %.2f)\n",
		offTput, onTput, ratio))

	hist := rt.SnapshotHistory(stm.GlobalPartition)
	out.WriteString(fmt.Sprintf("store retention: cap=%d appends=%d live=%d version span [%d,%d]\n",
		hist.Cap, hist.Appends, hist.Live, hist.OldestVersion, hist.NewestVersion))

	// Phase 4: stale-snapshot sweep. Each scan pins its snapshot, then
	// deliberately waits until the writers have wrapped the ring past it
	// (so covering records are evicted and loads of overwritten cells
	// MISS the store), then scans. This is the path that used to cost
	// O(HistCap) seqlock probes per miss — per-cell scan cost grew with
	// the ring exactly when the store could not help. With the address
	// index a miss is O(1), so ns/cell must stay flat across HistCap.
	sweepScans := 8
	if o.Quick {
		sweepScans = 5
	}
	out.WriteString("\nStale-snapshot sweep (scan after the ring wrapped past the pinned snapshot)\n")
	out.WriteString("histcap  scans  ro-aborts  snap-hits  snap-misses  ret-misses  ns/cell\n")
	var sweepNsPerCell []float64
	for _, hc := range []uint{64, 512, 4096} {
		srt, sbase := setup(hc)
		var (
			stop     atomic.Bool
			wg       sync.WaitGroup
			badSum   uint64
			attempts uint64
			scanNs   int64
		)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := workload.NewRng(seed)
				for !stop.Load() {
					i := stm.Addr(rng.Intn(cells))
					j := stm.Addr(rng.Intn(cells))
					d := rng.Uint64() % 16
					srt.Run(func(tx *stm.Tx) error {
						vi := tx.Load(sbase + i)
						if vi < d {
							return nil
						}
						tx.Store(sbase+i, vi-d)
						tx.Store(sbase+j, tx.Load(sbase+j)+d)
						return nil
					})
				}
			}(uint64(w) + 31)
		}
		st0 := srt.PartitionStats(stm.GlobalPartition)
		for s := 0; s < sweepScans; s++ {
			// Only the scan's first attempt ages its snapshot: a stale
			// attempt usually dies (reconstructed reads pin the snapshot,
			// so the inevitable retention miss aborts it), and re-aging
			// every retry would keep every attempt doomed forever. The
			// retries scan fresh and commit; the aged attempt is the one
			// that exercises — and times — the miss path.
			aged := false
			srt.Run(func(tx *stm.Tx) error {
				attempts++
				sum := tx.Load(sbase) // first access pins the snapshot
				if !aged {
					aged = true
					// Age the snapshot: wait for ~2 ring revolutions of
					// appends (bounded, in case the writers stall).
					start := srt.SnapshotHistory(stm.GlobalPartition).Appends
					deadline := time.Now().Add(150 * time.Millisecond)
					for srt.SnapshotHistory(stm.GlobalPartition).Appends < start+2*uint64(hc) &&
						time.Now().Before(deadline) {
						time.Sleep(500 * time.Microsecond)
					}
				}
				t0 := time.Now()
				// The deferred sample also charges aborted attempts'
				// partial scans (the abort unwinds through this defer).
				defer func() { scanNs += time.Since(t0).Nanoseconds() }()
				for c := 1; c < cells; c++ {
					sum += tx.Load(sbase + stm.Addr(c))
				}
				if sum != uint64(cells)*initVal {
					badSum = sum
				}
				return nil
			}, stm.Snapshot())
		}
		stop.Store(true)
		wg.Wait()
		if badSum != 0 {
			return nil, fmt.Errorf("mvscan: stale sweep (hist=%d) observed sum %d, want %d (torn snapshot)",
				hc, badSum, uint64(cells)*initVal)
		}
		d := srt.PartitionStats(stm.GlobalPartition).Sub(st0)
		sh := srt.SnapshotHistory(stm.GlobalPartition)
		nsPerCell := float64(scanNs) / float64(attempts*uint64(cells-1))
		sweepNsPerCell = append(sweepNsPerCell, nsPerCell)
		out.WriteString(fmt.Sprintf("%-8d %-6d %-10d %-10d %-12d %-11d %.0f\n",
			hc, sweepScans, attempts-uint64(sweepScans), d.SnapHits, d.SnapMisses, sh.TruncMisses, nsPerCell))
	}

	return &Report{
		ID:     "mvscan",
		Title:  "Multi-version snapshot store: abort-free read-only scans under writers",
		Output: out.String(),
		Summary: fmt.Sprintf("snapshot scans: %d commits, 0 aborts, %d reconstructed reads (validate/extend path aborted %d times); writer throughput on/off ratio %.2f; stale-scan ns/cell %.0f @hist=64 vs %.0f @hist=4096",
			snapRes.scans, snapRes.hits, baseRes.aborts, ratio,
			sweepNsPerCell[0], sweepNsPerCell[len(sweepNsPerCell)-1]),
	}, nil
}
