// Package repro_test holds the benchmark entry points: one testing.B
// bench per reproduced table/figure (delegating to internal/experiments
// in quick mode), plus micro-benchmarks of the STM's primitive costs.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The full-scale artefacts are produced by cmd/partbench; these benches
// regenerate the same rows/series at reduced scale so the whole suite
// stays fast enough for CI.
package repro_test

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/mvstore"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/stm"
	"repro/stmnet"
	"repro/txds"
)

// benchOptions returns experiment options scaled for testing.B.
func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Quick = true
	o.PointDuration = 120 * time.Millisecond
	o.Warmup = 30 * time.Millisecond
	return o
}

// runExperiment executes one experiment per b.N batch and reports its
// headline throughput.
func runExperiment(b *testing.B, id string) {
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Output == "" {
			b.Fatal("empty experiment output")
		}
		if i == 0 {
			b.Logf("%s: %s", rep.ID, rep.Summary)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }

// BenchmarkSnapshotAppend measures the commit-path cost the snapshot
// store adds to a small update transaction, against the store-less
// baseline (the regression tripwire for "free when off").
func BenchmarkSnapshotAppend(b *testing.B) {
	for _, c := range []struct {
		name string
		hist uint
	}{
		{"hist-off", 0},
		{"hist-1k", 1 << 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			rt := stm.MustNew(stm.Config{HeapWords: 1 << 16, SnapshotHistory: c.hist})
			var a stm.Addr
			rt.Run(func(tx *stm.Tx) error {
				a = tx.Alloc(stm.SiteID(0), 4)
				for i := 0; i < 4; i++ {
					tx.Store(a+stm.Addr(i), 0)
				}
				return nil
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Run(func(tx *stm.Tx) error {
					for j := 0; j < 4; j++ {
						tx.Store(a+stm.Addr(j), tx.Load(a+stm.Addr(j))+1)
					}
					return nil
				})
			}
		})
	}
}

// BenchmarkSnapshotReadAtMiss measures the snapshot store's miss path —
// the cost a long scan over a stale snapshot pays on every load the store
// cannot serve. The probed addresses' records have been evicted by a full
// ring of unrelated traffic, so every lookup is a retention miss. With
// the address-indexed store the cost must be independent of HistCap
// (one index probe + one dead chain link); the newest-first ring scan
// this replaced paid O(HistCap) seqlock probes here, ~64x between the
// two sub-benchmarks.
func BenchmarkSnapshotReadAtMiss(b *testing.B) {
	const probeAddrs = 64
	for _, capacity := range []int{64, 4096} {
		b.Run(fmt.Sprintf("hist-%d", capacity), func(b *testing.B) {
			buf := mvstore.New(capacity)
			for a := uint64(0); a < probeAddrs; a++ {
				buf.Append(a, 1, 1, 2)
			}
			for i := 0; i < capacity; i++ {
				buf.Append(1<<20+uint64(i), 2, 2, 3)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := buf.ReadAt(uint64(i%probeAddrs), 1); ok {
					b.Fatal("expected a miss: record was evicted")
				}
			}
		})
	}
}

// BenchmarkSnapshotReadAtHit measures the hit path at increasing chain
// depth: the walk visits one link per commit that landed on the address
// after the snapshot being read.
func BenchmarkSnapshotReadAtHit(b *testing.B) {
	for _, depth := range []int{1, 8} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			buf := mvstore.New(1024)
			const addrs = 64
			for d := 0; d < depth; d++ {
				for a := uint64(0); a < addrs; a++ {
					v := uint64(d + 1)
					buf.Append(a, v, v, v+1)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Snapshot 1 is covered by the oldest record: the walk
				// traverses the full chain (depth links).
				if _, ok := buf.ReadAt(uint64(i%addrs), 1); !ok {
					b.Fatal("expected a hit")
				}
			}
		})
	}
}

// BenchmarkSnapshotObjectRead prices object reconstruction from the
// snapshot store: an 8-word object written by one commit, read back at a
// past snapshot either word by word (8 index probes + 8 chain walks) or
// through the grouped-record range lookup (1 index probe, neighbours
// served from the batch's contiguous ring slots). The probes/op metric —
// straight from the store's lookup stats — is the contract: grouped must
// probe ~1, per-word exactly 8.
func BenchmarkSnapshotObjectRead(b *testing.B) {
	const objWords = 8
	setup := func() *mvstore.Buffer {
		buf := mvstore.New(1024)
		recs := make([]mvstore.Record, objWords)
		for i := range recs {
			recs[i] = mvstore.Record{Addr: 64 + uint64(i), Val: uint64(100 + i), PrevVer: 1, NewVer: 5}
		}
		buf.AppendBatch(recs)
		return buf
	}
	b.Run("per-word", func(b *testing.B) {
		buf := setup()
		start := buf.Stats().Probes
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := uint64(0); w < objWords; w++ {
				if _, ok := buf.ReadAt(64+w, 3); !ok {
					b.Fatal("expected a hit")
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(buf.Stats().Probes-start)/float64(b.N), "probes/op")
	})
	b.Run("grouped", func(b *testing.B) {
		buf := setup()
		start := buf.Stats().Probes
		var dst [objWords]uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !buf.ReadRangeAt(64, 3, dst[:]) {
				b.Fatal("expected a range hit")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(buf.Stats().Probes-start)/float64(b.N), "probes/op")
	})
}

// BenchmarkSnapshotScan prices the engine side of a snapshot scan: one
// Snapshot() transaction LoadWords-ing 4 096 eight-word objects on a
// store-backed partition, quiet and beside a paced writer of whole-object
// transfers (the shape of stmbench's snapshot-audit). The first attempt of
// such a Run keeps no read set, so ns/object is the read protocol itself;
// allocs/op must stay 0. readonly is the same quiet scan as a ReadOnly()
// Run, which logs one read-set entry per orec.
func BenchmarkSnapshotScan(b *testing.B) {
	const objects, objWords, balance = 4096, 8, 1 << 20
	setup := func(b *testing.B) (*stm.Runtime, []stm.Addr) {
		rt := stm.MustNew(stm.Config{SnapshotHistory: 1 << 16})
		site := rt.RegisterSite("scan.object")
		objs := make([]stm.Addr, objects)
		for base := 0; base < objects; base += 64 {
			err := rt.Run(func(tx *stm.Tx) error {
				for i := base; i < base+64; i++ {
					objs[i] = tx.Alloc(site, objWords)
					tx.StoreWords(objs[i], []uint64{balance, 0, 0, 0, 0, 0, 0, 0})
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		return rt, objs
	}
	scan := func(b *testing.B, rt *stm.Runtime, objs []stm.Addr, opt stm.TxOpt) {
		var words [objWords]uint64
		var sum uint64
		body := func(tx *stm.Tx) error {
			sum = 0
			for _, o := range objs {
				tx.LoadWords(o, words[:])
				sum += words[0]
			}
			return nil
		}
		opts := []stm.TxOpt{opt}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.Run(body, opts...); err != nil {
				b.Fatal(err)
			}
			if sum != objects*balance {
				b.Fatalf("scan saw total %d, want %d", sum, uint64(objects*balance))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/objects, "ns/object")
	}
	b.Run("quiet", func(b *testing.B) {
		rt, objs := setup(b)
		defer rt.Close()
		scan(b, rt, objs, stm.Snapshot())
	})
	b.Run("readonly", func(b *testing.B) {
		rt, objs := setup(b)
		defer rt.Close()
		scan(b, rt, objs, stm.ReadOnly())
	})
	b.Run("writer", func(b *testing.B) {
		rt, objs := setup(b)
		defer rt.Close()
		stop, done := make(chan struct{}), make(chan struct{})
		go func() { // ~20 000 whole-object transfers/s in 1 ms bursts
			defer close(done)
			var a, c stm.Addr
			var from, to [objWords]uint64
			transfer := func(tx *stm.Tx) error {
				tx.LoadWords(a, from[:])
				tx.LoadWords(c, to[:])
				from[0]--
				to[0]++
				tx.StoreWords(a, from[:])
				tx.StoreWords(c, to[:])
				return nil
			}
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for n := 0; ; {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				for k := 0; k < 20; k, n = k+1, n+1 {
					a, c = objs[n%objects], objs[(n+objects/2)%objects]
					if err := rt.Run(transfer); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
		scan(b, rt, objs, stm.Snapshot())
		close(stop)
		<-done
	})
}

// BenchmarkRefLoad is the typed-object hot path: loading an 8-word
// object through Ref.Load (one footprint touch, one multi-word read)
// against the same words loaded one at a time.
func BenchmarkRefLoad(b *testing.B) {
	type obj struct{ A, B, C, D, E, F, G, H uint64 }
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	var r stm.Ref[obj]
	rt.Run(func(tx *stm.Tx) error {
		r = stm.AllocRef[obj](tx, stm.SiteID(0))
		r.Store(tx, obj{A: 1, H: 8})
		return nil
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt.Run(func(tx *stm.Tx) error {
				o := r.Load(tx)
				_ = o
				return nil
			}, stm.ReadOnly())
		}
	})
	b.Run("per-word", func(b *testing.B) {
		base := r.Addr()
		for i := 0; i < b.N; i++ {
			rt.Run(func(tx *stm.Tx) error {
				var s uint64
				for w := 0; w < 8; w++ {
					s += tx.Load(base + stm.Addr(w))
				}
				_ = s
				return nil
			}, stm.ReadOnly())
		}
	})
}

// BenchmarkAllocFreeChurn measures the allocate/retire/reclaim cycle on
// the commit path: every transaction replaces an 8-word node (one Alloc,
// one Free), so steady state continually retires into limbo and drains it
// through the NeedsReclaim-gated commit-path sweeps. The reclaimed-words
// metric is the conservation check — at quiesce it must account for
// everything retired (words/op approaches 8).
func BenchmarkAllocFreeChurn(b *testing.B) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 18})
	var cell stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		cell = tx.Alloc(stm.SiteID(0), 1)
		n := tx.Alloc(stm.SiteID(0), 8)
		tx.Store(n, 1)
		tx.StoreAddr(cell, n)
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Run(func(tx *stm.Tx) error {
			old := tx.LoadAddr(cell)
			n := tx.Alloc(stm.SiteID(0), 8)
			tx.Store(n, tx.Load(old)+1)
			tx.StoreAddr(cell, n)
			tx.Free(old, 8)
			return nil
		})
	}
	b.StopTimer()
	rt.Reclaim()
	rs := rt.ReclaimStats()
	if rs.RetiredWords != rs.ReclaimedWords {
		b.Fatalf("limbo not drained at quiesce: retired %d, reclaimed %d", rs.RetiredWords, rs.ReclaimedWords)
	}
	b.ReportMetric(float64(rs.ReclaimedWords)/float64(b.N), "reclaimed-words/op")
}

// BenchmarkAllocFreeChurnSnapshot is the same churn with a snapshot store
// attached and a snapshot-mode scan interleaved every 8 updates: commits
// pay the history append, and the retire/reclaim cycle runs against
// readers that actually publish pinned stamps into the epoch table.
func BenchmarkAllocFreeChurnSnapshot(b *testing.B) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 18, SnapshotHistory: 1 << 10})
	var cell stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		cell = tx.Alloc(stm.SiteID(0), 1)
		n := tx.Alloc(stm.SiteID(0), 8)
		tx.Store(n, 1)
		tx.StoreAddr(cell, n)
		return nil
	})
	scan := func(tx *stm.Tx) error {
		n := tx.LoadAddr(cell)
		var s uint64
		for w := 0; w < 8; w++ {
			s += tx.Load(n + stm.Addr(w))
		}
		_ = s
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Run(func(tx *stm.Tx) error {
			old := tx.LoadAddr(cell)
			n := tx.Alloc(stm.SiteID(0), 8)
			tx.Store(n, tx.Load(old)+1)
			tx.StoreAddr(cell, n)
			tx.Free(old, 8)
			return nil
		})
		if i&7 == 0 {
			if err := rt.Run(scan, stm.Snapshot()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	rt.Reclaim()
	rs := rt.ReclaimStats()
	if rs.LimboWords != 0 {
		b.Fatalf("limbo not drained at quiesce: %d words", rs.LimboWords)
	}
}

// --- primitive-cost micro-benchmarks ---

// BenchmarkRunPooled measures the minimal update transaction through
// Runtime.Run, the only entry point: every call borrows a slot from the
// pool and returns it. In steady state the borrow is one CAS lifting the
// caller's last slot out of the victim cache (claimCache) and the return
// is one CAS parking it there again.
func BenchmarkRunPooled(b *testing.B) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	var a stm.Addr
	if err := rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(stm.SiteID(0), 1)
		tx.Store(a, 0)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	fn := func(tx *stm.Tx) error {
		tx.Store(a, tx.Load(a)+1)
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUncontendedIncrement measures the base cost of a minimal
// read-modify-write transaction (one load, one store, commit).
func BenchmarkUncontendedIncrement(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  stm.PartConfig
	}{
		{"etl-wb", stm.DefaultPartConfig()},
		{"etl-wt", func() stm.PartConfig { c := stm.DefaultPartConfig(); c.Write = stm.WriteThrough; return c }()},
		{"ctl", func() stm.PartConfig { c := stm.DefaultPartConfig(); c.Acquire = stm.CommitTime; return c }()},
		{"visible", func() stm.PartConfig { c := stm.DefaultPartConfig(); c.Read = stm.VisibleReads; return c }()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := mode.cfg
			rt := stm.MustNew(stm.Config{HeapWords: 1 << 16, Default: &cfg})
			var a stm.Addr
			rt.Run(func(tx *stm.Tx) error {
				a = tx.Alloc(stm.SiteID(0), 1)
				tx.Store(a, 0)
				return nil
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
			}
		})
	}
}

// BenchmarkRepeatedReadSweep measures loop-heavy re-reading of a fixed
// footprint through the public facade, in a Run that writes nothing and
// so logs every read: per-load cost stays flat as passes multiply,
// because each load appends one read-set entry.
func BenchmarkRepeatedReadSweep(b *testing.B) {
	const words = 64
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	var base stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		base = tx.Alloc(stm.SiteID(0), words)
		for i := 0; i < words; i++ {
			tx.Store(base+stm.Addr(i), uint64(i))
		}
		return nil
	})
	for _, passes := range []int{1, 8} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt.Run(func(tx *stm.Tx) error {
					var sink uint64
					for p := 0; p < passes; p++ {
						for j := 0; j < words; j++ {
							sink += tx.Load(base + stm.Addr(j))
						}
					}
					_ = sink
					return nil
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*passes*words), "ns/load")
		})
	}
}

// BenchmarkReadOnlyScan measures per-read cost of long read-only
// transactions under both visibilities.
func BenchmarkReadOnlyScan(b *testing.B) {
	const n = 1024
	for _, mode := range []struct {
		name string
		read stm.PartConfig
	}{
		{"invisible", stm.DefaultPartConfig()},
		{"visible", func() stm.PartConfig { c := stm.DefaultPartConfig(); c.Read = stm.VisibleReads; return c }()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := mode.read
			rt := stm.MustNew(stm.Config{HeapWords: 1 << 16, Default: &cfg})
			var c *txds.CounterArray
			rt.Run(func(tx *stm.Tx) error { c = txds.NewCounterArray(tx, rt, "scan", n, 1); return nil })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Run(func(tx *stm.Tx) error { c.Sum(tx); return nil }, stm.ReadOnly())
			}
			b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// BenchmarkListWalk is the shape that dominates stmbench's multiset: a
// read-only Contains over a 128-node sorted list, every node a three-word
// object rebuilt with RefAt and read through Ref.Load. The probed key
// cycles over the whole range, so the mean walk is half the list.
func BenchmarkListWalk(b *testing.B) {
	const nodes = 128
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	var l *txds.List
	rt.Run(func(tx *stm.Tx) error {
		l = txds.NewList(tx, rt, "walk")
		for k := uint64(0); k < nodes; k++ {
			l.Insert(tx, 2*k, k)
		}
		return nil
	})
	var k uint64
	fn := func(tx *stm.Tx) error {
		l.Contains(tx, k)
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = uint64(i) % (2 * nodes)
		if err := rt.Run(fn, stm.ReadOnly()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortReadOnlyRun is the per-Run fixed cost: one Load in a
// read-only transaction through the pooled entry point, so nearly all of
// it is borrow, begin, commit, statistics and return.
func BenchmarkShortReadOnlyRun(b *testing.B) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	var a stm.Addr
	if err := rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(stm.SiteID(0), 1)
		tx.Store(a, 1)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	var sink uint64
	fn := func(tx *stm.Tx) error {
		sink += tx.Load(a)
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(fn, stm.ReadOnly()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionLookup isolates the cost table2 measures: transactions
// against a partitioned heap vs the same heap unpartitioned.
func BenchmarkPartitionLookup(b *testing.B) {
	for _, partitioned := range []bool{false, true} {
		name := "unpartitioned"
		if partitioned {
			name = "partitioned"
		}
		b.Run(name, func(b *testing.B) {
			rt := stm.MustNew(stm.Config{HeapWords: 1 << 18})
			if partitioned {
				rt.StartProfiling()
			}
			var tree *txds.RBTree
			rt.Run(func(tx *stm.Tx) error { tree = txds.NewRBTree(tx, rt, "pl.tree"); return nil })
			for k := uint64(0); k < 512; k++ {
				rt.Run(func(tx *stm.Tx) error { tree.Insert(tx, k*2, k); return nil })
			}
			if partitioned {
				if _, err := rt.StopProfilingAndPartition(); err != nil {
					b.Fatal(err)
				}
			}
			rng := workload.NewRng(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Uint64() % 1024
				rt.Run(func(tx *stm.Tx) error { tree.Contains(tx, k); return nil }, stm.ReadOnly())
			}
		})
	}
}

// BenchmarkScatteredLoad is multiset's conflict-metadata footprint without
// its structures: uniformly random single-word Loads (ReadOnly Runs of 64)
// over six partitions of 1<<16 words and 1<<16 orecs each, so nearly
// every Load touches a lock word no recent Load touched. ns/op is per
// Load.
func BenchmarkScatteredLoad(b *testing.B) {
	const parts, words, objWords, perRun = 6, 1 << 16, 256, 64
	rt := stm.MustNew(stm.Config{})
	defer rt.Close()
	groups := make(map[string][]string, parts)
	objs := make([]stm.Addr, 0, parts*words/objWords)
	for p := 0; p < parts; p++ {
		name := fmt.Sprintf("scatter.%d", p)
		site := rt.RegisterSite(name)
		groups[name] = []string{name}
		err := rt.Run(func(tx *stm.Tx) error {
			objs = objs[:p*words/objWords] // a retried attempt starts over
			for i := 0; i < words/objWords; i++ {
				objs = append(objs, tx.Alloc(site, objWords))
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := rt.ManualPartition(groups); err != nil {
		b.Fatal(err)
	}
	rng := workload.NewRng(1)
	var sum uint64
	body := func(tx *stm.Tx) error {
		for k := 0; k < perRun; k++ {
			r := rng.Uint64()
			sum += tx.Load(objs[r%uint64(len(objs))] + stm.Addr((r>>32)%objWords))
		}
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += perRun {
		if err := rt.Run(body, stm.ReadOnly()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntsetStructures measures single-thread operation cost per
// structure at 20% updates (the per-structure baseline of the intset
// microbenchmarks).
func BenchmarkIntsetStructures(b *testing.B) {
	for _, kind := range []apps.IntSetKind{apps.SetList, apps.SetSkipList, apps.SetRBTree, apps.SetHash} {
		b.Run(kind.String(), func(b *testing.B) {
			rt := stm.MustNew(stm.Config{HeapWords: 1 << 20})
			is := apps.NewIntSet(rt, apps.IntSetSpec{
				Kind: kind, Name: "b." + kind.String(), KeyRange: 1024, UpdateRatio: 0.2, Buckets: 128,
			})
			rng := workload.NewRng(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				is.Op(rng)
			}
		})
	}
}

// BenchmarkVacationOps measures the reservation transaction cost.
func BenchmarkVacationOps(b *testing.B) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22})
	cfg := apps.DefaultVacationConfig()
	cfg.ItemsPerTable = 256
	cfg.Customers = 256
	v := apps.NewVacation(rt, cfg)
	rng := workload.NewRng(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Op(rng)
	}
}

// BenchmarkOpenLoopLatency is the tail-latency smoke bench: a contended
// counter driven open-loop (fixed 50k/s arrival schedule, 4 workers), so
// each op's latency counts from its scheduled due time and queueing
// shows up in the tail. The primary ns/op figure just tracks the
// arrival interval (constant by construction); the figure to read is the
// p99-ns/op secondary metric.
func BenchmarkOpenLoopLatency(b *testing.B) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16})
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(stm.SiteID(0), 1)
		tx.Store(a, 0)
		return nil
	})
	const rate = 50000.0
	measure := time.Duration(float64(b.N) / rate * float64(time.Second))
	b.ResetTimer()
	res := bench.RunOpenLoop(rt, bench.OpenLoopConfig{
		Threads: 4,
		Rate:    rate,
		Warmup:  5 * time.Millisecond,
		Measure: measure,
		Seed:    11,
	}, func(rng *workload.Rng, _ uint64) {
		rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	})
	if res.Ops == 0 {
		b.Fatal("no measured ops")
	}
	b.ReportMetric(float64(res.Latency.Quantile(0.99)), "p99-ns/op")
	b.ReportMetric(res.Achieved, "ops/s")
}

// BenchmarkWALAppend prices the redo log's publish path in isolation:
// each op hands a small commit record to the group-commit ring (Async
// durability, so nothing waits for fsync). This is the fixed cost every
// durable commit adds on top of the STM commit itself.
func BenchmarkWALAppend(b *testing.B) {
	log, _, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	ops := []wal.Op{{Addr: 64, Val: 1}, {Addr: 65, Val: 2}, {Addr: 66, Val: 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.PublishCommit(uint64(i+1), ops)
	}
	b.StopTimer()
	if !log.Sync() {
		b.Fatal("final sync failed")
	}
}

// BenchmarkCommitSyncDurability measures the full durable commit path:
// small write transactions under DurabilitySync, where every Run parks
// until the group committer reports its LSN fsynced. With concurrent
// committers the fsync amortizes across the group, so per-op cost should
// sit well below one fsync.
func BenchmarkCommitSyncDurability(b *testing.B) {
	rt, err := stm.New(stm.Config{
		HeapWords: 1 << 16,
		WAL: &stm.WALConfig{
			Dir:                 b.TempDir(),
			Durability:          stm.DurabilitySync,
			GroupCommitInterval: 50 * time.Microsecond,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	var base stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		base = tx.Alloc(stm.SiteID(0), 64)
		return nil
	})
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		slot := stm.Addr(next.Add(1) % 64)
		for pb.Next() {
			rt.Run(func(tx *stm.Tx) error {
				tx.Store(base+slot, tx.Load(base+slot)+1)
				return nil
			})
		}
	})
}

// BenchmarkContendedCounter measures throughput of the maximal-contention
// workload under the harness (8 goroutines, interleaving simulation).
func BenchmarkContendedCounter(b *testing.B) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 16, YieldEveryOps: 8})
	var a stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(stm.SiteID(0), 1)
		tx.Store(a, 0)
		return nil
	})
	b.ResetTimer()
	res := bench.RunOps(rt, 8, b.N/8+1, 3, func(rng *workload.Rng) {
		rt.Run(func(tx *stm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	})
	b.ReportMetric(res.Throughput, "ops/s")
	b.ReportMetric(res.AbortRate, "abort-rate")
}

// BenchmarkNetPipelinedTxn is the network-path tail bench: a loopback
// stmd-equivalent server driven open-loop (fixed 20k/s arrivals, 8
// workers pipelining over 2 connections), each arrival one two-key
// transfer batch through the full stack — client encode, TCP, frame
// decode, pooled Run, response stream, client decode. As with
// BenchmarkOpenLoopLatency the primary ns/op figure just tracks the
// arrival interval; the figure to read is the coordinated-omission-safe
// p99-ns/op secondary metric.
func BenchmarkNetPipelinedTxn(b *testing.B) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 20, SnapshotHistory: 1 << 10})
	srv, err := server.New(server.Config{Runtime: rt})
	if err != nil {
		b.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()

	const nKeys = 64
	key := func(k int) string { return fmt.Sprintf("acct:%d", k) }
	setup, err := stmnet.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	pre := stmnet.NewBatch()
	for k := 0; k < nKeys; k++ {
		pre.Put(key(k), 1<<20)
	}
	if _, err := setup.Do(pre); err != nil {
		b.Fatal(err)
	}
	setup.Close()

	clients := make([]*stmnet.Client, 2)
	for i := range clients {
		if clients[i], err = stmnet.Dial(addr); err != nil {
			b.Fatal(err)
		}
		defer clients[i].Close()
	}

	const rate = 20000.0
	measure := time.Duration(float64(b.N) / rate * float64(time.Second))
	b.ReportAllocs()
	b.ResetTimer()
	res := bench.RunOpenLoopFunc(bench.OpenLoopConfig{
		Threads: 8,
		Rate:    rate,
		Warmup:  5 * time.Millisecond,
		Measure: measure,
		Seed:    13,
	}, func(worker int) (bench.IndexedOpFunc, func()) {
		c := clients[worker%len(clients)]
		return func(rng *workload.Rng, _ uint64) {
			from := rng.Intn(nKeys)
			to := (from + 1 + rng.Intn(nKeys-1)) % nKeys
			d := uint64(rng.Intn(100) + 1)
			if _, err := c.Do(stmnet.NewBatch().
				Add(key(from), stmnet.Neg(d)).
				Add(key(to), d)); err != nil {
				b.Error(err)
			}
		}, nil
	})
	b.StopTimer()
	if res.Ops == 0 {
		b.Fatal("no measured ops")
	}
	b.ReportMetric(float64(res.Latency.Quantile(0.99)), "p99-ns/op")
	b.ReportMetric(res.Achieved, "ops/s")
}
