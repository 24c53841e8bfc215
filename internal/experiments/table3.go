package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/stm"
)

// Table3 measures operation-latency distributions (extension
// experiment): mean and tail latency per intset structure under the
// default configuration and under visible reads, at 20% updates with the
// standard worker count. Throughput (fig2/fig3) hides tails; visible
// reads add a constant per-read RMW cost but remove validation-failure
// retries, so their effect shows up differently at p50 and p99 — a
// latency-vs-throughput trade the tuner's commit-rate objective cannot
// see, documented here for completeness.
func Table3(o Options) (*Report, error) {
	o = o.normalized()
	tbl := stats.NewTable("Table 3 — operation latency (ns), 20% updates",
		"structure", "config", "mean", "p50", "p99")

	configs := []struct {
		name string
		cfg  stm.PartConfig
	}{
		{"invisible", stm.DefaultPartConfig()},
		{"visible", visibleConfig()},
	}

	specs := multiSetSpecs(o)
	var rows int
	for _, spec := range specs {
		s := spec
		s.UpdateRatio = 0.20
		for _, c := range configs {
			cfg := c.cfg
			rt := newRuntime(o, &cfg)
			res := bench.Run(rt, bench.RunConfig{
				Threads:       o.Threads,
				Warmup:        o.Warmup,
				Measure:       o.PointDuration,
				Seed:          uint64(rows) + 31,
				SampleLatency: true,
			}, intSetApp(s).build(rt))
			if res.Latency == nil || res.Latency.Count() == 0 {
				continue
			}
			tbl.AddRow(s.Kind.String(), c.name,
				fmt.Sprintf("%.0f", res.Latency.Mean()),
				fmt.Sprintf("%d", res.Latency.Quantile(0.50)),
				fmt.Sprintf("%d", res.Latency.Quantile(0.99)))
			rows++
		}
	}

	return &Report{
		ID:      "table3",
		Title:   "Operation latency distributions per structure and read mode",
		Output:  tbl.Render(),
		Summary: fmt.Sprintf("%d structure/config latency rows sampled", rows),
	}, nil
}
