package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/stm"
)

// Fig7 is the write-strategy ablation the paper's introduction motivates
// ("different workloads require ... even different transactional memory
// designs"): each intset structure at 20% updates under encounter-time
// write-back, encounter-time write-through, and commit-time locking.
// Expected shape: WT's cheap commits win when aborts are rare; CTL's
// short lock-hold times help contended structures; WB sits between.
func Fig7(o Options) (*Report, error) {
	o = o.normalized()
	tbl := stats.NewTable("Fig. 7 — write-strategy ablation (ops/s, 20% updates)",
		"structure", "etl-wb", "etl-wt", "ctl", "best")

	strategies := []struct {
		name    string
		acquire stm.PartConfig
	}{
		{"etl-wb", func() stm.PartConfig { c := stm.DefaultPartConfig(); c.Write = stm.WriteBack; return c }()},
		{"etl-wt", func() stm.PartConfig { c := stm.DefaultPartConfig(); c.Write = stm.WriteThrough; return c }()},
		{"ctl", func() stm.PartConfig { c := stm.DefaultPartConfig(); c.Acquire = stm.CommitTime; return c }()},
	}

	specs := multiSetSpecs(o)
	summary := make([]string, 0, len(specs))
	for _, spec := range specs {
		s := spec
		s.UpdateRatio = 0.20
		row := []string{s.Kind.String()}
		best, bestName := 0.0, ""
		for _, strat := range strategies {
			cfg := strat.acquire
			rt := newRuntime(o, &cfg)
			res := bench.Run(rt, bench.RunConfig{
				Threads: o.Threads,
				Warmup:  o.Warmup,
				Measure: o.PointDuration,
				Seed:    uint64(len(row)) + 3,
			}, intSetApp(s).build(rt))
			row = append(row, fmt.Sprintf("%.0f", res.Throughput))
			if res.Throughput > best {
				best, bestName = res.Throughput, strat.name
			}
		}
		row = append(row, bestName)
		tbl.AddRow(row...)
		summary = append(summary, fmt.Sprintf("%s:%s", s.Kind, bestName))
	}

	return &Report{
		ID:      "fig7",
		Title:   "Write-strategy ablation (ETL-WB / ETL-WT / CTL) per structure",
		Output:  tbl.Render(),
		Summary: "best strategy per structure — " + fmt.Sprint(summary),
	}, nil
}
