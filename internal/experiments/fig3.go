package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// Fig3 reproduces the visible-vs-invisible reads comparison. The paper's
// claim: visible reads "typically perform better on workloads with a high
// percentage of update transactions", invisible reads win otherwise.
//
// The workload makes the mechanism explicit: a counter array where each
// operation is either a short two-slot transfer or a "rebalance" — an
// update transaction that scans the whole array and then moves one unit
// out of its fullest slot. Rebalances have large read sets; under
// invisible reads the transfer churn invalidates their snapshots and
// they die repeatedly on validation, while visible reads with reader
// priority pin the scanned slots (the short transfers wait or yield) and
// the rebalance completes. The x-axis sweeps the share of these long
// update transactions.
//
// Reported: throughput and abort rate for both modes; the crossover point
// is the experiment's result.
func Fig3(o Options) (*Report, error) {
	o = o.normalized()
	thr := stats.NewFigure("Fig. 3a — throughput vs long-update-tx ratio (ops/s)", "rebalance%", "operations per second")
	ab := stats.NewFigure("Fig. 3b — abort rate vs long-update-tx ratio", "rebalance%", "aborts/(commits+aborts), ×1000")

	ratios := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.5}
	if o.Quick {
		ratios = []float64{0, 0.05, 0.2}
	}
	slots := 1024
	if o.Quick {
		slots = 256
	}

	inv := stm.DefaultPartConfig()
	vis := stm.DefaultPartConfig()
	vis.Read = stm.VisibleReads
	vis.ReaderCM = stm.WriterYieldsToReaders
	modes := []struct {
		name string
		cfg  stm.PartConfig
	}{{"invisible", inv}, {"visible", vis}}

	type point struct{ inv, vis float64 }
	results := map[float64]*point{}
	for _, ratio := range ratios {
		results[ratio] = &point{}
		for _, m := range modes {
			cfg := m.cfg
			rt := newRuntime(o, &cfg)
			var c *txds.CounterArray
			rt.Run(func(tx *stm.Tx) error { c = txds.NewCounterArray(tx, rt, "fig3.arr", slots, 100); return nil })
			res := bench.Run(rt, bench.RunConfig{
				Threads: o.Threads,
				Warmup:  o.Warmup,
				Measure: o.PointDuration,
				Seed:    uint64(ratio*100) + 11,
			}, scanUpdateOp(rt, c, ratio))
			thr.SeriesNamed(m.name).Add(ratio*100, res.Throughput)
			ab.SeriesNamed(m.name).Add(ratio*100, res.AbortRate*1000)
			if m.name == "invisible" {
				results[ratio].inv = res.Throughput
			} else {
				results[ratio].vis = res.Throughput
			}
		}
	}

	// Locate the crossover (first ratio where visible wins).
	crossover := -1.0
	for _, r := range ratios {
		if results[r].vis > results[r].inv {
			crossover = r
			break
		}
	}

	out := thr.Render() + "\n" + ab.Render()
	if o.CSV {
		out += "\n" + thr.CSV() + "\n" + ab.CSV()
	}
	lo, hi := ratios[0], ratios[len(ratios)-1]
	summary := fmt.Sprintf(
		"invisible/visible at %.0f%% updates: %.2f; at %.0f%% updates: %.2f; ",
		lo*100, safeDiv(results[lo].inv, results[lo].vis),
		hi*100, safeDiv(results[hi].inv, results[hi].vis))
	if crossover >= 0 {
		summary += fmt.Sprintf("crossover at ~%.0f%% updates", crossover*100)
	} else {
		summary += "no crossover in the swept range"
	}
	return &Report{
		ID:      "fig3",
		Title:   "Visible vs invisible reads across update ratios",
		Output:  out,
		Summary: summary,
	}, nil
}

// scanUpdateOp builds the fig3 operation: rebalance with probability
// ratio, short transfer otherwise. The rebalance scans the whole array
// for its fullest slot and moves one unit to a random slot — the write is
// unconditional (except in the degenerate same-slot draw), so rebalances
// always churn the array.
func scanUpdateOp(rt *stm.Runtime, c *txds.CounterArray, ratio float64) bench.OpFunc {
	return func(rng *workload.Rng) {
		if rng.Float64() < ratio {
			to := rng.Intn(c.N())
			rt.Run(func(tx *stm.Tx) error {
				maxI := 0
				maxV := uint64(0)
				for i := 0; i < c.N(); i++ {
					if v := c.Get(tx, i); v > maxV {
						maxV, maxI = v, i
					}
				}
				if maxI != to && maxV > 0 {
					c.Transfer(tx, maxI, to, 1)
				}
				return nil
			})
			return
		}
		from, to := rng.Intn(c.N()), rng.Intn(c.N())
		rt.Run(func(tx *stm.Tx) error { c.Transfer(tx, from, to, 1); return nil })
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
