// Command vacation runs the travel-reservation application standalone:
// build tables, profile, partition, tune, run a timed workload, and print
// per-partition statistics plus the tuner's decision trace. It is the
// end-to-end demonstration of the paper's pipeline on one application.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/workload"
	"repro/stm"
)

func main() {
	var (
		threads   = flag.Int("threads", 8, "worker threads")
		duration  = flag.Duration("duration", 2*time.Second, "measured window")
		items     = flag.Int("items", 1024, "rows per reservation table")
		customers = flag.Int("customers", 1024, "customer count")
		partition = flag.Bool("partition", true, "enable automatic partitioning + tuning")
		yield     = flag.Uint64("yield", 8, "interleaving simulation (0 = off)")
	)
	flag.Parse()

	rt := stm.MustNew(stm.Config{HeapWords: 1 << 23, YieldEveryOps: *yield})
	cfg := apps.DefaultVacationConfig()
	cfg.ItemsPerTable = *items
	cfg.Customers = *customers

	if *partition {
		rt.StartProfiling()
	}
	fmt.Printf("building vacation: %d items/table, %d customers...\n", *items, *customers)
	v := apps.NewVacation(rt, cfg)
	if *partition {
		rng := workload.NewRng(1)
		for i := 0; i < 500; i++ {
			v.Op(rng)
		}
	}

	if *partition {
		plan, err := rt.StopProfilingAndPartition()
		if err != nil {
			fmt.Println("partitioning failed:", err)
			return
		}
		fmt.Print(plan.Describe(rt.Sites()))
		rt.StartTuner(stm.DefaultTunerConfig())
	}

	fmt.Printf("running %v with %d threads...\n", *duration, *threads)
	res := bench.Run(rt, bench.RunConfig{
		Threads: *threads,
		Warmup:  200 * time.Millisecond,
		Measure: *duration,
		Seed:    42,
	}, func(rng *workload.Rng) { v.Op(rng) })
	fmt.Println("result:", res)

	fmt.Println("\nper-partition statistics:")
	for _, d := range res.PerPart {
		if d.Commits == 0 && d.TotalAborts() == 0 {
			continue
		}
		fmt.Printf("  %-28s commits=%-9d upd=%.2f reads/tx=%-6.1f abort=%.3f\n",
			d.Name, d.Commits, d.UpdateRatio(), float64(d.Loads)/float64(max(d.Commits, 1)), d.AbortRate())
	}

	if *partition {
		trace := rt.StopTuner()
		fmt.Printf("\ntuner decisions (%d):\n", len(trace))
		for _, d := range trace {
			fmt.Println(" ", d)
		}
	}

	if msg := v.CheckInvariants(); msg != "" {
		fmt.Println("INVARIANT VIOLATION:", msg)
	} else {
		fmt.Println("\ninvariants: OK (seats conserved, trees well-formed)")
	}
}
