package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/stm"
)

// Table1 reproduces the partition inventory: for each benchmark
// application, the partitions the analysis discovers and their measured
// characteristics (reads/tx, writes/tx, update ratio, abort rate). This
// is the paper's motivating observation — partitions of one application
// differ enough that a single STM configuration cannot fit all of them.
func Table1(o Options) (*Report, error) {
	o = o.normalized()
	var tables, summary []string
	for i, a := range catalog(o) {
		rt := newRuntime(o, nil)
		op, plan, err := partitioned(rt, a)
		if err != nil {
			return nil, err
		}
		res := bench.Run(rt, bench.RunConfig{
			Threads: o.Threads,
			Warmup:  o.Warmup,
			Measure: o.PointDuration,
			Seed:    uint64(i) + 1,
		}, op)
		title := fmt.Sprintf("Table 1%c — %s partitions", 'a'+i, a.name)
		if a.extension {
			title += " (extension)"
		}
		tables = append(tables, statsTable(title, plan, res).Render())
		summary = append(summary, fmt.Sprintf("%s: %d partitions discovered", a.name, plan.NumPartitions()-1))
	}
	return &Report{
		ID:      "table1",
		Title:   "Partition inventory and per-partition characteristics",
		Output:  strings.Join(tables, "\n"),
		Summary: strings.Join(summary, "; "),
	}, nil
}

// statsTable renders one application's per-partition characteristics.
func statsTable(title string, plan *stm.Plan, res bench.Result) *stats.Table {
	tbl := stats.NewTable(title,
		"partition", "sites", "commits", "upd-ratio", "reads/tx", "writes/tx", "abort-rate")
	for i, d := range res.PerPart {
		if d.Commits == 0 && d.TotalAborts() == 0 {
			continue
		}
		nsites := "-"
		if i < len(plan.Groups) {
			nsites = fmt.Sprintf("%d", len(plan.Groups[i]))
		}
		tbl.AddRow(
			d.Name,
			nsites,
			fmt.Sprintf("%d", d.Commits),
			fmtFloat(d.UpdateRatio(), 2),
			fmtFloat(perTx(d.Loads, d.Commits), 1),
			fmtFloat(perTx(d.Stores, d.Commits), 1),
			fmtFloat(d.AbortRate(), 3),
		)
	}
	return tbl
}
