package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/stats"
	"repro/stm"
)

// Fig6 reproduces the dynamic-workload experiment: the phases application
// flips between a read-heavy phase (range audits, invisible reads
// optimal) and an update-heavy phase (whole-array rebalances, visible
// reads with reader priority optimal). Static configurations are right in
// one phase and wrong in the other; the runtime tuner follows the flips
// with a reaction lag. Reported: throughput per phase segment and
// overall, plus the tuner's decision count.
func Fig6(o Options) (*Report, error) {
	o = o.normalized()

	pcfg := apps.DefaultPhasesConfig()
	if o.Quick {
		pcfg.Slots = 256
		pcfg.AuditRange = 64
		pcfg.PhaseOps = 3_000
	}
	segments := 6 // three full read/update cycles
	opsPerThread := pcfg.PhaseOps / o.Threads
	if opsPerThread == 0 {
		opsPerThread = 1
	}

	inv := stm.DefaultPartConfig()
	vis := stm.DefaultPartConfig()
	vis.Read = stm.VisibleReads
	vis.ReaderCM = stm.WriterYieldsToReaders
	cases := []struct {
		name     string
		global   stm.PartConfig
		adaptive bool
	}{
		{"static-invisible", inv, false},
		{"static-visible", vis, false},
		{"adaptive", inv, true}, // adaptive starts from the invisible default
	}

	fig := stats.NewFigure("Fig. 6 — throughput per phase segment (ops/s)", "segment", "operations per second")
	tbl := stats.NewTable("Fig. 6 summary — overall throughput", "configuration", "ops/s", "tuner decisions")

	var adaptive, bestStatic float64
	var adaptiveDecisions []stm.TunerDecision
	for _, c := range cases {
		cfg := c.global
		rt := newRuntime(o, &cfg)
		p := apps.NewPhases(rt, pcfg)
		if c.adaptive {
			tc := stm.DefaultTunerConfig()
			tc.Interval = 20 * time.Millisecond
			tc.Hysteresis = 1
			tc.HillClimb = false // isolate the visibility knob
			tc.MinCommits = 50
			rt.StartTuner(tc)
		}
		t0 := time.Now()
		var totalOps uint64
		for seg := 0; seg < segments; seg++ {
			res := bench.RunOps(rt, o.Threads, opsPerThread, uint64(seg)+5, p.Op)
			totalOps += res.Ops
			fig.SeriesNamed(c.name).Add(float64(seg), res.Throughput)
		}
		total := float64(totalOps) / time.Since(t0).Seconds()
		decisions := 0
		if c.adaptive {
			adaptiveDecisions = rt.StopTuner()
			decisions = len(adaptiveDecisions)
			adaptive = total
		} else if total > bestStatic {
			bestStatic = total
		}
		// Money is conserved across every regime or the experiment is void.
		if msg := p.CheckInvariants(); msg != "" {
			return nil, fmt.Errorf("fig6 (%s): %s", c.name, msg)
		}
		tbl.AddRow(c.name, fmt.Sprintf("%.0f", total), fmt.Sprintf("%d", decisions))
	}

	out := fig.Render() + "\n" + tbl.Render()
	if len(adaptiveDecisions) > 0 {
		out += "\nadaptive tuner decisions:\n"
		for _, d := range adaptiveDecisions {
			out += "  " + d.String() + "\n"
		}
	}
	if o.CSV {
		out += "\n" + fig.CSV()
	}
	return &Report{
		ID:     "fig6",
		Title:  "Dynamic workload phases: adaptive vs static configurations",
		Output: out,
		Summary: fmt.Sprintf("adaptive %.0f ops/s vs best static %.0f ops/s (ratio %.2f, %d decisions)",
			adaptive, bestStatic, safeDiv(adaptive, bestStatic), len(adaptiveDecisions)),
	}, nil
}
