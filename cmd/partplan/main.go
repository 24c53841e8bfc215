// Command partplan runs the offline half of the hybrid tuning story:
// profile a benchmark application, install the discovered partitioning,
// let the runtime tuner specialize each partition under load, and emit
// the resulting plan (topology + tuned per-partition configurations) as
// JSON. A later run loads that file with Runtime.LoadAndInstallPlanFile
// and starts already-tuned — the runtime tuner then only tracks drift.
//
// Usage:
//
//	partplan -app vacation -tune 3s -o vacation.plan.json  # atomic, checksummed
//	partplan -app vacation -tune 3s > vacation.plan.json   # plain stdout
//	partplan -app intset -check vacation.plan.json   # validate a file loads
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/workload"
	"repro/stm"
)

func main() {
	var (
		app     = flag.String("app", "intset", "application: intset, vacation, bank, genome, kmeans")
		tune    = flag.Duration("tune", 2*time.Second, "tuning window under load before the plan is saved")
		threads = flag.Int("threads", 8, "worker threads during the tuning window")
		yield   = flag.Uint64("yield", 8, "interleaving simulation (see partbench)")
		check   = flag.String("check", "", "instead of generating: validate that this plan file loads against the app's sites")
		out     = flag.String("o", "", "write the plan to this file atomically (checksummed temp file + rename) instead of stdout")
	)
	flag.Parse()

	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22, YieldEveryOps: *yield})
	rt.StartProfiling()
	op, err := buildApp(rt, *app)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Warm-up drives the profiler.
	rng := workload.NewRng(1)
	for i := 0; i < 500; i++ {
		op(rng)
	}

	if *check != "" {
		rt.StopProfiling()
		// LoadAndInstallPlanFile validates the envelope checksum, so a
		// torn or rotted file reports as corrupt rather than half-loading.
		plan, err := rt.LoadAndInstallPlanFile(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plan does not load: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "plan ok: %d partitions\n", plan.NumPartitions())
		return
	}

	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprint(os.Stderr, plan.Describe(rt.Sites()))

	// Tune under load.
	tc := stm.DefaultTunerConfig()
	tc.Interval = 25 * time.Millisecond
	rt.StartTuner(tc)
	bench.Run(rt, bench.RunConfig{
		Threads: *threads,
		Warmup:  0,
		Measure: *tune,
		Seed:    2,
	}, op)
	decisions := rt.StopTuner()
	fmt.Fprintf(os.Stderr, "tuner: %d decisions in %s\n", len(decisions), *tune)

	if *out != "" {
		if err := rt.SavePlanFile(*out, plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "plan written to %s\n", *out)
		return
	}
	if err := rt.SavePlan(os.Stdout, plan); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// buildApp constructs the named application and returns its op function.
func buildApp(rt *stm.Runtime, name string) (bench.OpFunc, error) {
	switch name {
	case "intset":
		m := apps.NewMultiSet(rt, apps.DefaultMultiSetSpecs())
		return m.Op, nil
	case "vacation":
		v := apps.NewVacation(rt, apps.DefaultVacationConfig())
		return func(rng *workload.Rng) { v.Op(rng) }, nil
	case "bank":
		cfg := apps.DefaultBankConfig()
		b := apps.NewBank(rt, cfg)
		return func(rng *workload.Rng) { b.Op(rng, cfg) }, nil
	case "genome":
		g := apps.NewGenome(rt, apps.DefaultGenomeConfig())
		return g.Op, nil
	case "kmeans":
		cfg := apps.DefaultKMeansConfig()
		km := apps.NewKMeans(rt, cfg, 11)
		return func(rng *workload.Rng) { km.Op(rng, cfg) }, nil
	default:
		return nil, fmt.Errorf("partplan: unknown app %q (have intset, vacation, bank, genome, kmeans)", name)
	}
}
