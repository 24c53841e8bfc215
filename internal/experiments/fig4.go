package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// Fig4 reproduces the conflict-detection granularity experiment: a
// counter array under concurrent transfers plus audit scans, swept across
// static lock-array sizes (LockBits), overlaid with the hill-climbing
// tuner's trajectory. Small tables make unrelated counters share orecs
// (false conflicts); oversized tables waste cache. The tuner should land
// on the flat part of the curve.
func Fig4(o Options) (*Report, error) {
	o = o.normalized()
	fig := stats.NewFigure("Fig. 4 — throughput vs lock-array size (ops/s)", "lockBits", "operations per second")

	bitsSweep := []uint{4, 6, 8, 10, 12, 14, 16}
	if o.Quick {
		bitsSweep = []uint{4, 10, 16}
	}
	slots := 1 << 14
	if o.Quick {
		slots = 1 << 10
	}

	op := func(rt *stm.Runtime, c *txds.CounterArray) bench.OpFunc {
		return func(rng *workload.Rng) {
			if rng.Float64() < 0.02 {
				rt.Run(func(tx *stm.Tx) error { c.Sum(tx); return nil }, stm.ReadOnly())
				return
			}
			from, to := rng.Intn(c.N()), rng.Intn(c.N())
			rt.Run(func(tx *stm.Tx) error { c.Transfer(tx, from, to, 1); return nil })
		}
	}

	var best float64
	var bestBits uint
	for _, bits := range bitsSweep {
		cfg := stm.DefaultPartConfig()
		cfg.LockBits = bits
		cfg.CM = stm.CMSuicide
		rt := newRuntime(o, &cfg)
		var c *txds.CounterArray
		rt.Run(func(tx *stm.Tx) error { c = txds.NewCounterArray(tx, rt, "fig4.counters", slots, 100); return nil })
		res := bench.Run(rt, bench.RunConfig{
			Threads: o.Threads,
			Warmup:  o.Warmup,
			Measure: o.PointDuration,
			Seed:    uint64(bits),
		}, op(rt, c))
		fig.SeriesNamed("static").Add(float64(bits), res.Throughput)
		if res.Throughput > best {
			best, bestBits = res.Throughput, bits
		}
	}

	// Tuner run: start mis-configured at the small end and let the hill
	// climber walk.
	start := stm.DefaultPartConfig()
	start.LockBits = 4
	start.CM = stm.CMSuicide
	rt := newRuntime(o, &start)
	var c *txds.CounterArray
	rt.Run(func(tx *stm.Tx) error { c = txds.NewCounterArray(tx, rt, "fig4.counters", slots, 100); return nil })
	tc := stm.DefaultTunerConfig()
	tc.Interval = 25 * time.Millisecond
	tc.ToVisibleAbortRate = 2.0 // isolate the granularity knob
	tc.MinLockBits = 4
	tc.MaxLockBits = 18
	tc.ProbeEvery = 1
	tc.MinCommits = 50
	rt.StartTuner(tc)
	res := bench.Run(rt, bench.RunConfig{
		Threads: o.Threads,
		Warmup:  4 * o.PointDuration, // give the climber room to move
		Measure: o.PointDuration,
		Seed:    99,
	}, op(rt, c))
	trace := rt.StopTuner()
	finalCfg, err := rt.PartitionConfig(stm.GlobalPartition)
	if err != nil {
		return nil, err
	}
	fig.SeriesNamed("tuner-final").Add(float64(finalCfg.LockBits), res.Throughput)

	out := fig.Render()
	out += fmt.Sprintf("\ntuner: started at lockBits=4, finished at lockBits=%d after %d decisions (static optimum %d)\n",
		finalCfg.LockBits, len(trace), bestBits)
	for _, d := range trace {
		out += "  " + d.String() + "\n"
	}
	if o.CSV {
		out += "\n" + fig.CSV()
	}
	return &Report{
		ID:     "fig4",
		Title:  "Conflict-detection granularity sweep and hill-climbing tuner",
		Output: out,
		Summary: fmt.Sprintf("static optimum lockBits=%d (%.0f ops/s); tuner moved 4→%d",
			bestBits, best, finalCfg.LockBits),
	}, nil
}
