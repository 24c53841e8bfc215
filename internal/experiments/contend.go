package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
)

// Contend is the multi-thread contention sweep the single-thread rsdedup
// experiment leaves open: a scaling artefact for the footprint-bounded
// hot path under real conflict pressure. Every transaction scans a slice
// of a small shared array (driving read-set extension whenever a
// concurrent writer commits mid-scan) and then writes two cells (driving
// lock conflicts on hot orecs). The sweep crosses thread counts with the
// contention-management policies whose pause behaviour matters at scale:
// tight spinning (CMSpin) and the randomized exponential pause
// (CMBackoff, whose spin loop a regression once compiled away), plus
// older-wins arbitration (CMTimestamp) as the convoy-free reference. For
// each point it reports throughput, abort rate, and wait cycles per
// commit — the cache-traffic proxy the backoff pause is supposed to
// shrink relative to spinning.
func Contend(o Options) (*Report, error) {
	o = o.normalized()
	cells := 64
	scan := 24
	if o.Quick {
		cells, scan = 32, 12
	}

	cms := []struct {
		name string
		cm   stm.CMPolicy
	}{
		{"spin", stm.CMSpin},
		{"backoff", stm.CMBackoff},
		{"timestamp", stm.CMTimestamp},
	}

	fig := stats.NewFigure("Contention sweep — commits/s by CM policy", "threads", "commits per second")
	var tbl strings.Builder
	tbl.WriteString("cm         threads  commits/s  abort-rate  waitcycles/commit\n")

	// waitPerCommit at the max-thread point, per policy, for the summary.
	waits := map[string]float64{}
	for _, c := range cms {
		for _, threads := range o.threadSweep() {
			cfg := stm.DefaultPartConfig()
			cfg.CM = c.cm
			rt := newRuntime(o, &cfg)
			var base stm.Addr
			rt.Run(func(tx *stm.Tx) error {
				base = tx.Alloc(stm.SiteID(0), cells)
				for i := 0; i < cells; i++ {
					tx.Store(base+stm.Addr(i), 100)
				}
				return nil
			})
			res := bench.Run(rt, bench.RunConfig{
				Threads: threads,
				Warmup:  o.Warmup,
				Measure: o.PointDuration,
				Seed:    uint64(threads)*31 + 7,
			}, func(rng *workload.Rng) {
				start := rng.Intn(cells)
				i := stm.Addr(rng.Intn(cells))
				j := stm.Addr(rng.Intn(cells))
				rt.Run(func(tx *stm.Tx) error {
					var sum uint64
					for k := 0; k < scan; k++ {
						sum += tx.Load(base + stm.Addr((start+k)%cells))
					}
					d := sum % 3
					vi := tx.Load(base + i)
					if vi < d || i == j {
						return nil
					}
					tx.Store(base+i, vi-d)
					tx.Store(base+j, tx.Load(base+j)+d)
					return nil
				})
			})
			commitRate := float64(res.Commits) / res.Elapsed.Seconds()
			fig.SeriesNamed(c.name).Add(float64(threads), commitRate)
			var wait uint64
			for _, p := range res.PerPart {
				wait += p.WaitCycles
			}
			wpc := perTx(wait, res.Commits)
			tbl.WriteString(fmt.Sprintf("%-10s %-8d %-10.0f %-11.3f %.1f\n",
				c.name, threads, commitRate, res.AbortRate, wpc))
			if threads == o.threadSweep()[len(o.threadSweep())-1] {
				waits[c.name] = wpc
			}
		}
	}

	out := fig.Render() + "\n" + tbl.String()
	if o.CSV {
		out += "\n" + fig.CSV()
	}
	return &Report{
		ID:     "contend",
		Title:  "Contention sweep: read-set extension and CM pauses at scale",
		Output: out,
		Summary: fmt.Sprintf("at %d threads: waitcycles/commit spin %.1f vs backoff %.1f vs timestamp %.1f over a contended scan+transfer mix",
			o.Threads, waits["spin"], waits["backoff"], waits["timestamp"]),
	}, nil
}
