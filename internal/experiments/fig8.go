package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
)

// Fig8 is the contention-management ablation (extension experiment).
// The paper delegates lock-conflict arbitration to a per-partition CM
// policy but, with the evaluation text unavailable, does not pin a
// winner; this experiment measures both policies the engine implements
// on two workloads at the contention extremes:
//
//   - hot-bank: transfers over a tiny account array (every transaction
//     conflicts) — the regime where arbitration choice dominates.
//   - rbtree: a 4K-key red/black tree at 20% updates — mostly conflict-free,
//     where any CM overhead shows up as lost baseline throughput.
//
// Measured shape: under high contention suicide beats spin (a bounded
// spin mostly waits for a holder whose commit dooms the waiter anyway);
// under low contention the two are within noise of each other because
// the CM path is rarely taken.
func Fig8(o Options) (*Report, error) {
	o = o.normalized()
	policies := []stm.PartConfig{
		cmCfg(stm.CMSuicide),
		cmCfg(stm.CMSpin),
	}

	tbl := stats.NewTable("Fig. 8 — contention-manager ablation (ops/s | abort-rate)",
		"policy", "hot-bank", "hb-aborts", "rbtree-20u", "rb-aborts")

	var hotTput, treeTput []float64 // per policy, in policies' order

	accounts := 64
	keyRange := uint64(4096)
	if o.Quick {
		keyRange = 512
	}

	for i, cfg := range policies {
		pol := cfg // copy for the closure below

		// High contention: transfers over a tiny account array.
		rtHot := newRuntime(o, &pol)
		bank := apps.NewBank(rtHot, apps.BankConfig{
			Accounts: accounts, InitialBalance: 1000, MaxTransfer: 10,
		})
		hot := bench.Run(rtHot, bench.RunConfig{
			Threads: o.Threads, Warmup: o.Warmup, Measure: o.PointDuration,
			Seed: uint64(i) + 101,
		}, func(rng *workload.Rng) {
			bank.Transfer(rng, 10)
		})

		// Low contention: wide red/black tree, 20% updates.
		rtTree := newRuntime(o, &pol)
		treeOp := intSetApp(apps.IntSetSpec{
			Kind: apps.SetRBTree, Name: "fig8.tree", KeyRange: keyRange, UpdateRatio: 0.2,
		}).build(rtTree)
		tree := bench.Run(rtTree, bench.RunConfig{
			Threads: o.Threads, Warmup: o.Warmup, Measure: o.PointDuration,
			Seed: uint64(i) + 201,
		}, treeOp)

		hotTput = append(hotTput, hot.Throughput)
		treeTput = append(treeTput, tree.Throughput)
		tbl.AddRow(cfg.CM.String(),
			fmt.Sprintf("%.0f", hot.Throughput), fmtFloat(hot.AbortRate, 3),
			fmt.Sprintf("%.0f", tree.Throughput), fmtFloat(tree.AbortRate, 3))
	}

	// Summary: suicide's throughput relative to spin's on each workload.
	ratio := func(tput []float64) float64 {
		if tput[1] == 0 {
			return 0
		}
		return tput[0] / tput[1]
	}
	return &Report{
		ID:     "fig8",
		Title:  "Contention-manager ablation at high and low contention",
		Output: tbl.Render(),
		Summary: fmt.Sprintf("suicide vs spin: hot-bank %.2fx, rbtree %.2fx",
			ratio(hotTput), ratio(treeTput)),
	}, nil
}

// cmCfg returns the default configuration with one CM policy substituted.
func cmCfg(p stm.CMPolicy) stm.PartConfig {
	c := stm.DefaultPartConfig()
	c.CM = p
	return c
}
