// Warmstart: the offline half of the hybrid tuning story as a library
// workflow. Run 1 profiles the application, installs the discovered
// partitioning, lets the tuner specialize it under load, and saves the
// plan as JSON. Run 2 (a fresh runtime standing in for the next process)
// registers the same sites, loads the plan, and starts already
// partitioned and tuned — no profiling pass, no tuner convergence lag.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/workload"
	"repro/stm"
)

func main() {
	bankCfg := apps.BankConfig{
		Accounts:       1 << 10,
		InitialBalance: 1000,
		AuditRatio:     0.3, // audit-heavy: long scans writers love to kill
		MaxTransfer:    50,
	}

	// ---- Run 1: discover, tune, save -----------------------------------
	rt1 := stm.MustNew(stm.Config{HeapWords: 1 << 20, YieldEveryOps: 8})
	rt1.StartProfiling()
	bank := apps.NewBank(rt1, bankCfg)
	rng := workload.NewRng(1)
	for i := 0; i < 300; i++ {
		bank.Op(rng, bankCfg)
	}
	plan, err := rt1.StopProfilingAndPartition()
	if err != nil {
		panic(err)
	}

	tc := stm.DefaultTunerConfig()
	tc.Interval = 20 * time.Millisecond
	rt1.StartTuner(tc)
	res1 := bench.Run(rt1, bench.RunConfig{Threads: 4, Measure: 1500 * time.Millisecond, Seed: 2},
		func(rng *workload.Rng) { bank.Op(rng, bankCfg) })
	decisions := rt1.StopTuner()

	// SavePlanFile writes atomically (checksummed temp file + rename), so
	// a crash mid-save can never leave a half-written plan for run 2.
	planPath := filepath.Join(os.TempDir(), fmt.Sprintf("warmstart-%d.plan.json", os.Getpid()))
	defer os.Remove(planPath)
	if err := rt1.SavePlanFile(planPath, plan); err != nil {
		panic(err)
	}
	saved, _ := os.ReadFile(planPath)
	fmt.Printf("run 1: %.0f ops/s, %d tuner decisions; saved plan:\n%s\n",
		res1.Throughput, len(decisions), saved)

	// ---- Run 2: fresh runtime, warm start ------------------------------
	rt2 := stm.MustNew(stm.Config{HeapWords: 1 << 20, YieldEveryOps: 8})
	// The application registers its sites during construction, so build it
	// first, then install the saved plan (installation re-routes existing
	// and future blocks of those sites).
	bank2 := apps.NewBank(rt2, bankCfg)
	loaded, err := rt2.LoadAndInstallPlanFile(planPath)
	if errors.Is(err, stm.ErrCorruptPlan) || errors.Is(err, os.ErrNotExist) {
		// The warm-start contract: a damaged or missing plan file means a
		// cold start, never a crash or a half-installed topology.
		fmt.Println("run 2: plan file unusable, cold start")
		return
	}
	if err != nil {
		panic(err)
	}
	fmt.Printf("run 2: warm-started with %d partitions, no profiling pass\n",
		loaded.NumPartitions())
	for id := 0; id < rt2.NumPartitions(); id++ {
		cfg, _ := rt2.PartitionConfig(stm.PartID(id))
		fmt.Printf("  [%d] %-22s %s\n", id, rt2.PartitionNames()[id], cfg)
	}

	res2 := bench.Run(rt2, bench.RunConfig{Threads: 4, Measure: 1500 * time.Millisecond, Seed: 3},
		func(rng *workload.Rng) { bank2.Op(rng, bankCfg) })
	fmt.Printf("run 2: %.0f ops/s with the reloaded configuration (abort rate %.3f)\n",
		res2.Throughput, res2.AbortRate)
}
