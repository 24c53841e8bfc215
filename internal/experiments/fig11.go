package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
)

// Fig11 studies how to protect long transactions (extension
// experiment). Labyrinth routes read hundreds of grid cells and write
// tens in one transaction, so one short conflicting commit can doom
// an almost-finished route. Two mechanisms could help:
//
//   - CM policy (suicide/spin) — arbitrates what a route does
//     when its BFS hits a cell another route has locked. Waiting rarely
//     pays here: the lock holder is about to commit a conflicting
//     version, so patience only converts a lock abort into a validation
//     abort after more wasted reading.
//   - Read visibility — visible reads register the route's whole
//     frontier at the orecs, so a conflicting writer sees the reader
//     BEFORE committing; with WriterYieldsToReaders the short writer
//     defers to the long reader instead of dooming it.
//
// The experiment measures both axes and reports abort causes. Measured
// shape: the CM axis is nearly flat (suicide is as good as any), while
// visible/writer-yields cuts the abort rate by a third to a half; its
// throughput ranges from parity to ~30% below the invisible best (the
// per-read reader-bit RMW is costly on hundreds-of-cell scans), so the
// knob trades raw throughput against wasted work. Matching mechanism to
// abort cause, per partition, is exactly the paper's argument.
func Fig11(o Options) (*Report, error) {
	o = o.normalized()
	tbl := stats.NewTable("Fig. 11 — labyrinth (long transactions): what protects a route",
		"configuration", "routes/s", "abort-rate", "validation%", "lock%", "killed%")

	lcfg := apps.DefaultLabyrinthConfig()
	if o.Quick {
		lcfg = apps.LabyrinthConfig{Width: 16, Height: 16}
	}

	mk := func(read stm.ReadMode, cm stm.CMPolicy, rcm stm.ReaderPolicy) stm.PartConfig {
		c := stm.DefaultPartConfig()
		c.Read = read
		c.CM = cm
		c.ReaderCM = rcm
		return c
	}
	cases := []struct {
		name string
		cfg  stm.PartConfig
	}{
		{"invisible/suicide", mk(stm.InvisibleReads, stm.CMSuicide, stm.WriterKillsReaders)},
		{"invisible/spin", mk(stm.InvisibleReads, stm.CMSpin, stm.WriterKillsReaders)},
		{"visible/writer-kills", mk(stm.VisibleReads, stm.CMSpin, stm.WriterKillsReaders)},
		{"visible/writer-yields", mk(stm.VisibleReads, stm.CMSpin, stm.WriterYieldsToReaders)},
	}

	type row struct {
		name string
		rps  float64
	}
	var rows []row
	for i, c := range cases {
		cfg := c.cfg
		rt := newRuntime(o, &cfg)
		l := apps.NewLabyrinth(rt, lcfg)
		res := bench.Run(rt, bench.RunConfig{
			Threads: o.Threads, Warmup: o.Warmup, Measure: o.PointDuration,
			Seed: uint64(i) + 701,
		}, func(rng *workload.Rng) { l.Op(rng) })

		// Aggregate abort causes across partitions for the window.
		var val, lock, killed, total uint64
		for _, p := range res.PerPart {
			val += p.Aborts[stm.AbortValidation]
			lock += p.Aborts[stm.AbortLockedOnRead] + p.Aborts[stm.AbortLockedOnWrite]
			killed += p.Aborts[stm.AbortKilled] + p.Aborts[stm.AbortReaderWall]
			total += p.TotalAborts()
		}
		pct := func(n uint64) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(n)/float64(total))
		}
		tbl.AddRow(c.name,
			fmt.Sprintf("%.0f", res.Throughput),
			fmtFloat(res.AbortRate, 3),
			pct(val), pct(lock), pct(killed))
		rows = append(rows, row{c.name, res.Throughput})
	}

	best := rows[0]
	for _, r := range rows {
		if r.rps > best.rps {
			best = r
		}
	}
	return &Report{
		ID:     "fig11",
		Title:  "Long transactions (labyrinth): CM policy vs read visibility",
		Output: tbl.Render(),
		Summary: fmt.Sprintf("best long-transaction configuration: %s (%.0f routes/s)",
			best.name, best.rps),
	}, nil
}
