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
// winner; this experiment measures every policy the engine
// implements on two workloads at the contention extremes:
//
//   - hot-bank: transfers over a tiny account array (every transaction
//     conflicts) — the regime where arbitration choice dominates.
//   - rbtree: a 4K-key red/black tree at 20% updates — mostly conflict-free,
//     where any CM overhead shows up as lost baseline throughput.
//
// Expected shape: under high contention the waiting policies (spin,
// backoff, karma, timestamp) clearly beat suicide, and the kill-happy
// aggressive policy wastes work; under low contention all policies are
// within noise of each other because the CM path is rarely taken.
func Fig8(o Options) (*Report, error) {
	o = o.normalized()
	policies := []stm.PartConfig{
		cmCfg(stm.CMSuicide),
		cmCfg(stm.CMSpin),
		cmCfg(stm.CMBackoff),
		cmCfg(stm.CMKarma),
		cmCfg(stm.CMTimestamp),
		cmCfg(stm.CMAggressive),
	}

	tbl := stats.NewTable("Fig. 8 — contention-manager ablation (ops/s | abort-rate)",
		"policy", "hot-bank", "hb-aborts", "rbtree-20u", "rb-aborts")

	type outcome struct {
		name        string
		hot, tree   float64
		hotA, treeA float64
	}
	var rows []outcome

	accounts := 64
	keyRange := uint64(4096)
	if o.Quick {
		keyRange = 512
	}

	for i, cfg := range policies {
		pol := cfg // copy for the closure below
		name := cfg.CM.String()

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

		rows = append(rows, outcome{
			name: name,
			hot:  hot.Throughput, hotA: hot.AbortRate,
			tree: tree.Throughput, treeA: tree.AbortRate,
		})
		tbl.AddRow(name,
			fmt.Sprintf("%.0f", hot.Throughput), fmtFloat(hot.AbortRate, 3),
			fmt.Sprintf("%.0f", tree.Throughput), fmtFloat(tree.AbortRate, 3))
	}

	// Summary: best policy per workload and the suicide-vs-best gap under
	// contention.
	bestHot, bestTree := rows[0], rows[0]
	var suicideHot float64
	for _, r := range rows {
		if r.hot > bestHot.hot {
			bestHot = r
		}
		if r.tree > bestTree.tree {
			bestTree = r
		}
		if r.name == "suicide" {
			suicideHot = r.hot
		}
	}
	gap := 0.0
	if suicideHot > 0 {
		gap = bestHot.hot / suicideHot
	}
	return &Report{
		ID:     "fig8",
		Title:  "Contention-manager ablation at high and low contention",
		Output: tbl.Render(),
		Summary: fmt.Sprintf("hot-bank best: %s (%.1fx over suicide); rbtree best: %s",
			bestHot.name, gap, bestTree.name),
	}, nil
}

// cmCfg returns the default configuration with one CM policy substituted.
func cmCfg(p stm.CMPolicy) stm.PartConfig {
	c := stm.DefaultPartConfig()
	c.CM = p
	return c
}
