package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/stats"
	"repro/stm"
)

// Table2 measures the runtime overhead of partition tracking: the
// address→partition lookup on every access plus per-partition statistics.
// Single-threaded, no interleaving simulation, so the numbers isolate the
// bookkeeping cost rather than contention effects. The paper's claim is
// that this overhead is modest and recouped by per-partition tuning.
func Table2(o Options) (*Report, error) {
	o = o.normalized()
	tbl := stats.NewTable("Table 2 — partition-tracking overhead (1 thread, ops/s)",
		"structure", "updates", "unpartitioned", "partitioned", "overhead")

	specs := multiSetSpecs(o)
	var worst float64
	for _, spec := range specs {
		for _, upd := range []float64{0.0, 0.2} {
			s := spec
			s.UpdateRatio = upd

			// Baseline: single global partition (no plan installed).
			base := measureSingle(o, s, false)
			// Partitioned: the structure in its own partition.
			part := measureSingle(o, s, true)

			overhead := 0.0
			if part > 0 {
				overhead = base/part - 1
			}
			if overhead > worst {
				worst = overhead
			}
			tbl.AddRow(
				s.Kind.String(),
				fmtFloat(upd, 1),
				fmt.Sprintf("%.0f", base),
				fmt.Sprintf("%.0f", part),
				fmt.Sprintf("%+.1f%%", overhead*100),
			)
		}
	}

	return &Report{
		ID:      "table2",
		Title:   "Runtime overhead of partition tracking",
		Output:  tbl.Render(),
		Summary: fmt.Sprintf("worst-case tracking overhead %.1f%%", worst*100),
	}, nil
}

// measureSingle runs one structure single-threaded and returns ops/s.
func measureSingle(o Options, spec apps.IntSetSpec, partition bool) float64 {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22}) // no yield injection
	a := intSetApp(spec)
	var op bench.OpFunc
	if partition {
		var err error
		if op, _, err = partitioned(rt, a); err != nil {
			panic(err) // configuration error in the experiment itself
		}
	} else {
		op = a.build(rt)
	}
	res := bench.Run(rt, bench.RunConfig{
		Threads: 1,
		Warmup:  o.Warmup,
		Measure: o.PointDuration,
		Seed:    7,
	}, op)
	return res.Throughput
}
