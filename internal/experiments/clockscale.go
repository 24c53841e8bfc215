package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// branchBank is a bank whose accounts are split into per-branch arrays,
// one partition per branch: the cleanest possible stage for the commit
// clock, because transfers inside a branch are single-partition update
// transactions while cross-branch transfers span two partitions.
type branchBank struct {
	rt       *stm.Runtime
	branches []*txds.CounterArray
	perBr    int
	// crossRatio is the fraction of transfers that cross branches.
	crossRatio float64
}

func newBranchBank(rt *stm.Runtime, nBranches, perBranch int, crossRatio float64) (*branchBank, error) {
	b := &branchBank{rt: rt, perBr: perBranch, crossRatio: crossRatio}
	groups := make(map[string][]string, nBranches)
	for i := 0; i < nBranches; i++ {
		name := fmt.Sprintf("branch%d", i)
		rt.Run(func(tx *stm.Tx) error {
			b.branches = append(b.branches, txds.NewCounterArray(tx, rt, name, perBranch, 1000))
			return nil
		})
		groups[name] = []string{name + ".slots"}
	}
	if _, err := rt.ManualPartition(groups); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *branchBank) op(rng *workload.Rng) {
	fb := rng.Intn(len(b.branches))
	tb := fb
	if rng.Float64() < b.crossRatio {
		tb = rng.Intn(len(b.branches))
	}
	fi, ti := rng.Intn(b.perBr), rng.Intn(b.perBr)
	b.rt.Run(func(tx *stm.Tx) error {
		amt := 1 + rng.Uint64()%10
		v := b.branches[fb].Get(tx, fi)
		if v < amt || (fb == tb && fi == ti) {
			return nil
		}
		b.branches[fb].Set(tx, fi, v-amt)
		b.branches[tb].Add(tx, ti, amt)
		return nil
	})
}

// clockCase is one workload of the clock-scaling comparison: build
// constructs and partitions the application on rt and returns the
// benchmark operation.
type clockCase struct {
	name  string
	build func(rt *stm.Runtime) (bench.OpFunc, error)
}

func clockCases(o Options) []clockCase {
	branches, per := 8, 1024
	if o.Quick {
		branches, per = 4, 256
	}
	fromCatalog := func(name string) func(*stm.Runtime) (bench.OpFunc, error) {
		a := appNamed(o, name)
		return func(rt *stm.Runtime) (bench.OpFunc, error) {
			op, _, err := partitioned(rt, a)
			return op, err
		}
	}
	return []clockCase{
		{"bank", func(rt *stm.Runtime) (bench.OpFunc, error) {
			b, err := newBranchBank(rt, branches, per, 0.02)
			if err != nil {
				return nil, err
			}
			return b.op, nil
		}},
		{"intset", fromCatalog("intset-multi")},
		{"vacation", fromCatalog("vacation")},
	}
}

// ClockScale is an extension experiment beyond the paper's artefacts: the
// same partitioned workloads run under the global commit counter and
// under partition-local commit counters (internal/clock), sweeping
// threads. Alongside throughput it reports the shared-RMW ledger of each
// time base — the paper's "maintain the time base per partition" argument
// made measurable: under PartitionLocal only cross-partition commits
// touch shared clock state, so the shared-RMW count collapses from "every
// update commit" to "every cross-partition commit".
func ClockScale(o Options) (*Report, error) {
	o = o.normalized()
	fig := stats.NewFigure("Clock scaling — global vs partition-local time base (ops/s)",
		"threads", "operations per second")

	modes := []struct {
		name string
		tb   stm.TimeBaseMode
	}{
		{"global", stm.TimeBaseGlobal},
		{"plocal", stm.TimeBasePartitionLocal},
	}

	var ledger strings.Builder
	ledger.WriteString("shared-RMW ledger (max-thread point):\n")
	ledger.WriteString("workload   timebase  updates    shared-RMWs  cross-commits  shared/update\n")

	var sumRatio float64
	var nRatio int
	best := map[string]map[string]float64{} // workload -> mode -> peak ops/s
	for _, c := range clockCases(o) {
		best[c.name] = map[string]float64{}
		for _, m := range modes {
			for _, threads := range o.threadSweep() {
				rt := newRuntime(o, nil)
				op, err := c.build(rt)
				if err != nil {
					return nil, fmt.Errorf("clockscale %s: %w", c.name, err)
				}
				rt.SetTimeBase(m.tb)
				cs0 := rt.ClockStats()
				st0 := rt.Stats()
				res := bench.Run(rt, bench.RunConfig{
					Threads: threads,
					Warmup:  o.Warmup,
					Measure: o.PointDuration,
					Seed:    uint64(threads) + 19,
				}, op)
				fig.SeriesNamed(c.name+"/"+m.name).Add(float64(threads), res.Throughput)
				if res.Throughput > best[c.name][m.name] {
					best[c.name][m.name] = res.Throughput
				}
				if threads == o.threadSweep()[len(o.threadSweep())-1] {
					cs1 := rt.ClockStats()
					st1 := rt.Stats()
					var updates uint64
					for i := range st1 {
						updates += st1[i].UpdateCommits
						if i < len(st0) {
							updates -= st0[i].UpdateCommits
						}
					}
					shared := cs1.SharedRMWs - cs0.SharedRMWs
					cross := cs1.CrossCommits - cs0.CrossCommits
					ledger.WriteString(fmt.Sprintf("%-10s %-9s %-10d %-12d %-14d %.4f\n",
						c.name, m.name, updates, shared, cross,
						safeDiv(float64(shared), float64(updates))))
				}
			}
		}
		if g, p := best[c.name]["global"], best[c.name]["plocal"]; g > 0 && p > 0 {
			sumRatio += p / g
			nRatio++
		}
	}

	out := fig.Render() + "\n" + ledger.String()
	if o.CSV {
		out += "\n" + fig.CSV()
	}
	meanRatio := 0.0
	if nRatio > 0 {
		meanRatio = sumRatio / float64(nRatio)
	}
	return &Report{
		ID:     "clockscale",
		Title:  "Commit-clock scaling: global vs partition-local time bases",
		Output: out,
		Summary: fmt.Sprintf("partition-local/global peak throughput ratio %.2f (mean over %d workloads); shared clock RMWs collapse to cross-partition commits only",
			meanRatio, nRatio),
	}, nil
}
