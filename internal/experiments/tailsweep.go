package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
)

// TailSweep is an extension experiment beyond the paper's artefacts: the
// same contended workload measured closed-loop (the harness issues the
// next op when the previous returns) and open-loop (arrivals are due on
// a fixed schedule; latency counts from the due time), sweeping the
// offered rate as a fraction of closed-loop capacity. The point it
// makes is methodological: closed-loop latency is a service-time
// distribution — when the STM stalls a transaction, the harness stalls
// with it and stops generating the arrivals that would have queued — so
// its tail stays flat as load grows. The open-loop tail diverges as the
// offered rate approaches capacity, because queueing delay, the part of
// client-visible latency a closed loop cannot see, dominates p99 long
// before the median moves. The sweep also exercises the engine's own
// commit-latency histograms (stm.Config.LatencyStats): per-attempt
// service time measured inside the runtime, next to the harness's two
// external views.
func TailSweep(o Options) (*Report, error) {
	o = o.normalized()
	cfg := apps.DefaultBankConfig()
	cfg.Accounts = 256
	if o.Quick {
		cfg.Accounts = 64
	}
	build := func(rt *stm.Runtime) bench.OpFunc {
		// A small account array and transfers only: saturating write
		// contention so waits and retries stretch the service-time tail
		// that queueing then amplifies.
		b := apps.NewBank(rt, cfg)
		return func(rng *workload.Rng) { b.Transfer(rng, cfg.MaxTransfer) }
	}

	// Closed-loop reference: capacity (ops/s at full speed) and the
	// service-time distribution the closed harness reports.
	rtC := newRuntime(o, nil)
	closed := bench.Run(rtC, bench.RunConfig{
		Threads:       o.Threads,
		Warmup:        o.Warmup,
		Measure:       o.PointDuration,
		Seed:          41,
		SampleLatency: true,
	}, build(rtC))
	capacity := closed.Throughput
	if capacity <= 0 {
		return nil, fmt.Errorf("tailsweep: closed-loop capacity measured as 0")
	}
	closedLat := closed.Latency.Snapshot()

	fractions := []float64{0.25, 0.50, 0.75, 0.90}
	if o.Quick {
		fractions = []float64{0.50, 0.90}
	}

	fig := stats.NewFigure("Tail latency vs offered load — open-loop client view vs closed-loop service view (ns)",
		"offered rate (fraction of closed-loop capacity)", "latency (ns)")
	tbl := stats.NewTable("Tail sweep — closed-loop capacity "+fmtFloat(capacity, 0)+" ops/s",
		"offered", "achieved/s", "lag", "open p50", "open p99", "open p999", "service p99", "engine p99")

	var lastOpen, lastSvc uint64
	for _, f := range fractions {
		rt := newRuntime(o, nil)
		op := build(rt)
		rt.SetLatencyTracking(true)
		res := bench.RunOpenLoop(rt, bench.OpenLoopConfig{
			Threads: o.Threads,
			Rate:    capacity * f,
			Warmup:  o.Warmup,
			Measure: o.PointDuration,
			Seed:    43,
		}, func(rng *workload.Rng, _ uint64) { op(rng) })
		engine := rt.LatencyStats()

		fig.SeriesNamed("open/p50").Add(f, float64(res.Latency.Quantile(0.50)))
		fig.SeriesNamed("open/p99").Add(f, float64(res.Latency.Quantile(0.99)))
		fig.SeriesNamed("service/p99").Add(f, float64(res.Service.Quantile(0.99)))
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", f*100),
			fmtFloat(res.Achieved, 0),
			res.Lag.Round(time.Millisecond).String(),
			time.Duration(res.Latency.Quantile(0.50)).String(),
			time.Duration(res.Latency.Quantile(0.99)).String(),
			time.Duration(res.Latency.Quantile(0.999)).String(),
			time.Duration(res.Service.Quantile(0.99)).String(),
			time.Duration(engine.Quantile(0.99)).String(),
		)
		lastOpen, lastSvc = res.Latency.Quantile(0.99), res.Service.Quantile(0.99)
	}

	var b strings.Builder
	b.WriteString(fig.Render())
	b.WriteString("\n")
	b.WriteString(tbl.Render())
	fmt.Fprintf(&b, "\nclosed-loop latency (service view, all ops): %s\n", closedLat.Summary())
	b.WriteString("\nReading: 'open' percentiles count from each arrival's due time (client view,\n" +
		"coordinated-omission-safe); 'service' counts from issue time — what a closed\n" +
		"loop reports; 'engine' is the runtime's own per-attempt commit histogram\n" +
		"(stm.Runtime.LatencyStats). The open tail diverging from the flat service\n" +
		"tail as offered load approaches capacity is queueing delay the closed-loop\n" +
		"methodology structurally hides.\n")
	out := b.String()
	if o.CSV {
		out += "\n" + fig.CSV()
	}

	ratio := safeDiv(float64(lastOpen), float64(lastSvc))
	return &Report{
		ID:     "tailsweep",
		Title:  "Open- vs closed-loop tail latency across offered load",
		Output: out,
		Summary: fmt.Sprintf("at 90%% of closed-loop capacity the open-loop (client-view) p99 is %.1fx the service-view p99 — queueing delay closed-loop measurement hides",
			ratio),
	}, nil
}
