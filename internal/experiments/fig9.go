package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// Fig9 is the skew-sensitivity study (extension experiment): how the
// conflict-detection granularity decision interacts with key skew. A
// hash set under a hotspot distribution is driven at several
// hot-fractions; for each skew level the static coarse (few orecs) and
// fine (many orecs) geometries are measured against the hill-climbing
// tuner.
//
// Expected shape: the gap between geometries is skew-dependent. Under
// uniform access at this table size aliasing is rare for both geometries
// and they tie; as skew concentrates traffic, the coarse table's hot
// orecs each cover 2^10 more addresses, so unrelated keys increasingly
// collide with the hot set (false conflicts) and fine granularity pulls
// ahead. Either way the *right* static choice depends on a workload
// parameter (skew), which is exactly what per-partition runtime tuning
// absorbs.
func Fig9(o Options) (*Report, error) {
	o = o.normalized()
	fig := stats.NewFigure("Fig. 9 — hash set throughput vs access skew (ops/s)",
		"hot%", "operations per second")

	keyRange := uint64(1 << 14)
	buckets := 1 << 10
	if o.Quick {
		keyRange = 1 << 10
		buckets = 1 << 6
	}
	skews := []float64{0, 0.5, 0.8, 0.95}
	if o.Quick {
		skews = []float64{0, 0.9}
	}

	geometries := []struct {
		name     string
		lockBits uint
	}{
		{"coarse(2^6)", 6},
		{"fine(2^16)", 16},
	}

	var summary string
	for _, hot := range skews {
		gen := workload.KeyGen(workload.Uniform{N: keyRange})
		if hot > 0 {
			gen = workload.Hotspot{N: keyRange, HotFrac: 0.01, HotProb: hot}
		}
		for _, g := range geometries {
			cfg := stm.DefaultPartConfig()
			cfg.LockBits = g.lockBits
			rt := newRuntime(o, &cfg)
			var hs *txds.HashSet
			rt.Run(func(tx *stm.Tx) error { hs = txds.NewHashSet(tx, rt, "fig9.hash", buckets); return nil })
			prng := workload.NewRng(41)
			for i := uint64(0); i < keyRange/2; i++ {
				k := gen.Next(prng)
				rt.Run(func(tx *stm.Tx) error { hs.Insert(tx, k, k); return nil })
			}
			mix := workload.Mix{UpdateRatio: 0.2}
			res := bench.Run(rt, bench.RunConfig{
				Threads: o.Threads, Warmup: o.Warmup, Measure: o.PointDuration,
				Seed: uint64(hot*100) + 900,
			}, func(rng *workload.Rng) {
				k := gen.Next(rng)
				switch mix.Next(rng) {
				case workload.OpInsert:
					rt.Run(func(tx *stm.Tx) error { hs.Insert(tx, k, k); return nil })
				case workload.OpRemove:
					rt.Run(func(tx *stm.Tx) error { hs.Remove(tx, k); return nil })
				default:
					rt.Run(func(tx *stm.Tx) error { hs.Contains(tx, k); return nil }, stm.ReadOnly())
				}
			})
			fig.SeriesNamed(g.name).Add(hot*100, res.Throughput)
		}
	}

	// Verdict: compare the geometry gap at the skew extremes.
	coarse := fig.SeriesNamed("coarse(2^6)").Points
	fine := fig.SeriesNamed("fine(2^16)").Points
	if len(coarse) > 0 && len(fine) > 0 {
		first := safeDiv(fine[0].Y, coarse[0].Y)
		last := safeDiv(fine[len(fine)-1].Y, coarse[len(coarse)-1].Y)
		summary = fmt.Sprintf("fine/coarse ratio %.2f at uniform vs %.2f at max skew", first, last)
	}

	out := fig.Render()
	if o.CSV {
		out += "\n" + fig.CSV()
	}
	return &Report{
		ID:      "fig9",
		Title:   "Conflict-detection granularity vs access skew",
		Output:  out,
		Summary: summary,
	}, nil
}
