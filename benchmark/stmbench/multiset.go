package main

import (
	"fmt"
	"time"

	"repro/stm"
	"repro/txds"
)

// The multiset workload: the paper's Fig. 2 program, rebuilt here from
// txds and Runtime.Run so the benchmark does not depend on the
// repository's own application and harness packages. Four integer sets
// with different sizes and update shares plus a ledger with long
// rebalance transactions live in one heap; profiling discovers one
// partition per structure, the tuner specializes each during warm-up,
// and the measured windows run the frozen plan.

// intset is what the four set structures have in common.
type intset interface {
	Contains(tx *stm.Tx, k uint64) bool
	Insert(tx *stm.Tx, k, v uint64) bool
	Remove(tx *stm.Tx, k uint64) (uint64, bool)
	Len(tx *stm.Tx) int
}

const (
	msStreamLen   = 1 << 20 // ops generated up front; each worker replays its own stretch cyclically
	msProfileOps  = 500     // mixed ops run under profiling after population
	msChunk       = 64      // ops between clock reads in the closed loop
	msSampleEvery = 8       // every 8th op is timed (p50_us, and spans in the traced pass)
)

// msEnv is one built multiset program.
type msEnv struct {
	rt      *stm.Runtime
	sets    [msLedger]intset
	ledger  *txds.CounterArray
	initLen [msLedger]int
	ops     []msOp

	partitions int
	profileMs  float64
}

// msSetup builds and populates the structures under profiling and
// installs the discovered plan (or, with partitioned false, leaves
// everything in the single global partition).
func msSetup(cfg *runConfig, ops []msOp, partitioned bool) (*msEnv, error) {
	rt, err := stm.New(stm.Config{})
	if err != nil {
		return nil, err
	}
	e := &msEnv{rt: rt, ops: ops, partitions: 1}
	if partitioned {
		rt.StartProfiling()
	}
	err = rt.Run(func(tx *stm.Tx) error {
		e.sets[msList] = txds.NewList(tx, rt, "intset.list")
		e.sets[msSkip] = txds.NewSkipList(tx, rt, "intset.skip", 17)
		e.sets[msTree] = txds.NewRBTree(tx, rt, "intset.tree")
		e.sets[msHash] = txds.NewHashSet(tx, rt, "intset.hash", msHashBuckets/cfg.scale())
		e.ledger = txds.NewCounterArray(tx, rt, "intset.ledger", msLedgerSlots/cfg.scale(), msLedgerInit)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Populate each set to half its key range, so inserts and removes
	// each succeed about half the time.
	fill := newRng(cfg.seed ^ 0x5eed)
	for i, s := range e.sets {
		keyRange := msSpecs[i].keyRange / cfg.scale()
		for e.initLen[i] < keyRange/2 {
			before := e.initLen[i]
			err := rt.Run(func(tx *stm.Tx) error {
				e.initLen[i] = before // a retried attempt must not count twice
				for n := 0; n < 32 && e.initLen[i] < keyRange/2; n++ {
					if k := uint64(fill.intn(keyRange)); s.Insert(tx, k, k) {
						e.initLen[i]++
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if !partitioned {
		return e, nil
	}
	// A short mixed run shows the analyzer removes as well as inserts.
	w := e.newWorker(0, 1)
	for i := 0; i < msProfileOps; i++ {
		if err := w.step(nil); err != nil {
			return nil, fmt.Errorf("profiling run: %w", err)
		}
	}
	e.applyCounts(w)
	start := time.Now()
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		return nil, fmt.Errorf("partitioning: %w", err)
	}
	e.profileMs = float64(time.Since(start).Microseconds()) / 1e3
	e.partitions = plan.NumPartitions()
	return e, nil
}

// applyCounts folds a worker's successful inserts and removes into the
// expected set sizes.
func (e *msEnv) applyCounts(w *msWorker) {
	for i := range e.initLen {
		e.initLen[i] += w.inserted[i] - w.removed[i]
	}
	w.inserted, w.removed = [msLedger]int{}, [msLedger]int{}
}

// check verifies the invariants: every set holds exactly the keys the
// successful inserts and removes say it should, and the ledger total is
// unchanged.
func (e *msEnv) check(r *result, when string) {
	var lens [msLedger]int
	var total uint64
	err := e.rt.Run(func(tx *stm.Tx) error {
		for i, s := range e.sets {
			lens[i] = s.Len(tx)
		}
		total = e.ledger.Sum(tx)
		return nil
	}, stm.ReadOnly())
	if err != nil {
		r.violated("multiset: %s: structures unreadable: %v", when, err)
		return
	}
	for i := range lens {
		if lens[i] != e.initLen[i] {
			r.violated("multiset: %s: %s holds %d keys, want %d", when, msNames[i], lens[i], e.initLen[i])
		}
	}
	if want := uint64(e.ledger.N()) * msLedgerInit; total != want {
		r.violated("multiset: %s: ledger total %d, want %d", when, total, want)
	}
}

// msWorker is one generator goroutine's state. Its transaction bodies
// are method values created once, so issuing an op allocates nothing in
// the generator.
type msWorker struct {
	env    *msEnv
	cursor int
	op     msOp
	ok     bool

	inserted, removed [msLedger]int
	lat               []int64 // sampled Run durations, ns

	lookup, insert, remove, transfer, rebalance func(*stm.Tx) error
}

var readOnly = []stm.TxOpt{stm.ReadOnly()}

// newWorker returns worker w of n, starting at its own stretch of the
// op stream.
func (e *msEnv) newWorker(w, n int) *msWorker {
	k := &msWorker{env: e, cursor: w * len(e.ops) / n}
	k.lookup = func(tx *stm.Tx) error {
		e.sets[k.op.target].Contains(tx, uint64(k.op.a))
		return nil
	}
	k.insert = func(tx *stm.Tx) error {
		k.ok = e.sets[k.op.target].Insert(tx, uint64(k.op.a), uint64(k.op.a))
		return nil
	}
	k.remove = func(tx *stm.Tx) error {
		_, k.ok = e.sets[k.op.target].Remove(tx, uint64(k.op.a))
		return nil
	}
	k.transfer = func(tx *stm.Tx) error {
		e.ledger.Transfer(tx, int(k.op.a), int(k.op.b), 1)
		return nil
	}
	k.rebalance = func(tx *stm.Tx) error {
		// Scan every slot, then move one unit from the fullest to a.
		fullest, most := 0, uint64(0)
		for i := 0; i < e.ledger.N(); i++ {
			if v := e.ledger.Get(tx, i); v > most {
				most, fullest = v, i
			}
		}
		if fullest != int(k.op.a) && most > 0 {
			e.ledger.Transfer(tx, fullest, int(k.op.a), 1)
		}
		return nil
	}
	return k
}

// step runs the worker's next op as one transaction. With a tracer it
// also records the Run as a root span named after the structure.
func (k *msWorker) step(tr *tracer) error {
	k.op = k.env.ops[k.cursor]
	if k.cursor++; k.cursor == len(k.env.ops) {
		k.cursor = 0
	}
	var start int64
	if tr != nil {
		start = tr.now()
	}
	var err error
	rt := k.env.rt
	switch k.op.kind {
	case msLookup:
		err = rt.Run(k.lookup, readOnly...)
	case msInsert:
		if err = rt.Run(k.insert); err == nil && k.ok {
			k.inserted[k.op.target]++
		}
	case msRemove:
		if err = rt.Run(k.remove); err == nil && k.ok {
			k.removed[k.op.target]++
		}
	case msTransfer:
		err = rt.Run(k.transfer)
	case msRebalance:
		err = rt.Run(k.rebalance)
	}
	if tr != nil {
		tr.add(spList+spanName(k.op.target), -1, uint32(len(tr.spans)), start, tr.now())
	}
	return err
}

// chunk runs msChunk ops, timing every msSampleEvery-th one.
func (k *msWorker) chunk(tr *tracer) (ops, failed int) {
	for i := 0; i < msChunk; i++ {
		var err error
		switch {
		case i%msSampleEvery != 0:
			err = k.step(nil)
		case tr != nil:
			err = k.step(tr)
		default:
			start := time.Now()
			err = k.step(nil)
			k.lat = append(k.lat, int64(time.Since(start)))
		}
		if err != nil {
			logf("multiset: transaction failed: %v", err)
			failed++
		}
	}
	return msChunk, failed
}

// msPass is one closed-loop pass of n workers for dur.
type msPass struct {
	closedResult
	lat []int64 // sorted sampled Run durations of all workers
}

func (e *msEnv) pass(r *result, n int, dur time.Duration, tr *tracer) msPass {
	workers := make([]*msWorker, n)
	for w := range workers {
		workers[w] = e.newWorker(w, n)
		workers[w].lat = make([]int64, 0, 1<<19)
	}
	p := msPass{closedResult: runClosed(n, dur, func(w int) (int, int) { return workers[w].chunk(tr) })}
	for _, w := range workers {
		e.applyCounts(w)
		p.lat = append(p.lat, w.lat...)
	}
	sortInt64(p.lat)
	r.attempted += uint64(p.ops)
	r.failed += uint64(p.failed)
	return p
}

// fig2Tuner is the tuner as the paper's Fig. 2 experiment runs it: read
// visibility is the per-partition knob; granularity hill-climbing is
// studied separately.
func fig2Tuner() stm.TunerConfig {
	tc := stm.DefaultTunerConfig()
	tc.Interval = 30 * time.Millisecond
	tc.HillClimb = false
	tc.Hysteresis = 1
	tc.MinCommits = 50
	return tc
}

func runMultiset(cfg *runConfig) (*result, error) {
	r := cfg.newResult()
	ops, hash := genMultiset(cfg.seed, msStreamLen/cfg.scale(), cfg.scale())
	env, err := timeSetups(cfg, r,
		func() (*msEnv, error) { return msSetup(cfg, ops, true) },
		func(*msEnv) error { return nil }) // a volatile runtime holds nothing to release
	if err != nil {
		return nil, err
	}
	rt := env.rt

	// Warm-up with the tuner on, then freeze the plan it arrived at.
	rt.StartTuner(fig2Tuner())
	env.pass(r, cfg.clients, cfg.dur(warmupShare), nil)
	decisions := rt.StopTuner()
	for _, d := range decisions {
		logf("  tuner: %v", d)
	}
	env.check(r, "after warm-up")

	if !cfg.trace {
		r.measureWindows(cfg, func(w int, dur time.Duration) ([]int64, []float64) {
			p := env.pass(r, cfg.clients, dur, nil)
			env.check(r, fmt.Sprintf("after window %d", w))
			return p.lat, p.rates
		})
		return r, nil
	}

	m := r.metrics
	m["client.stream_hash"] = hash.metric()
	m["partition.count"] = float64(env.partitions)
	m["partition.profile_ms"] = env.profileMs
	m["tuning.decisions"] = float64(len(decisions))
	m["tuning.visible_parts"] = float64(visibleParts(rt))

	// Normal load with the counters read around it.
	rt.SetLatencyTracking(true)
	var acc counters
	before := readCounters(rt, nil)
	normal := env.pass(r, cfg.clients, cfg.dur(0.4), nil)
	acc.accumulate(before, readCounters(rt, nil))
	rt.SetLatencyTracking(false)
	acc.layerMetrics(r, uint64(normal.ops), 0)
	r.setClientTail(normal.lat)
	m["client.achieved_share"] = 1 // closed loop: nothing is offered that is not served

	// One generator, untraced then traced.
	untraced := env.pass(r, 1, cfg.dur(0.15), nil)
	tr := newTracer()
	traced := env.pass(r, 1, cfg.dur(0.3), tr)
	env.check(r, "after traced pass")
	for i, metric := range [msTargets]string{"txds.list_ns_op", "txds.skiplist_ns_op", "txds.rbtree_ns_op", "txds.hashset_ns_op", "txds.ledger_ns_op"} {
		m[metric] = tr.medianNs(named(spList + spanName(i)))
	}
	r.setRootOnlyTrace(tr, traced.closedResult, untraced.closedResult)
	endGauges(r, rt)

	// The paper's claim, measured: the same program and load on a
	// runtime left as one global partition with the default configuration.
	global, err := msSetup(cfg, ops, false)
	if err != nil {
		return nil, err
	}
	global.rt.SetLatencyTracking(true) // as the partitioned pass it is compared with had
	global.pass(r, cfg.clients, cfg.dur(warmupShare/2), nil)
	flat := global.pass(r, cfg.clients, cfg.dur(0.15), nil)
	global.check(r, "global-partition runtime")
	m["partition.speedup_vs_global"] = normal.tput / flat.tput
	return r, tr.write(cfg.outDir, "multiset")
}
