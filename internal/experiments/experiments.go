// Package experiments defines the reproduction of every table and figure
// of the paper's evaluation; All lists them. Each experiment builds
// fresh runtimes, drives the harness, and renders the same rows/series
// the paper reports. cmd/partbench exposes them on the command line;
// bench_test.go runs scaled-down versions under testing.B.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Options control experiment scale.
type Options struct {
	// Threads is the maximum worker count (sweeps use 1..Threads in
	// powers of two).
	Threads int
	// PointDuration is the measured window per data point.
	PointDuration time.Duration
	// Warmup precedes each measured window.
	Warmup time.Duration
	// YieldEveryOps configures interleaving simulation (see stm.Config).
	YieldEveryOps uint64
	// Quick shrinks sweeps for use under testing.B.
	Quick bool
	// CSV adds machine-readable output after each rendered artefact.
	CSV bool
}

// DefaultOptions returns the sizes used by cmd/partbench.
func DefaultOptions() Options {
	return Options{
		Threads:       8,
		PointDuration: 400 * time.Millisecond,
		Warmup:        100 * time.Millisecond,
		YieldEveryOps: 8,
	}
}

func (o Options) normalized() Options {
	if o.Threads <= 0 {
		o.Threads = 8
	}
	if o.PointDuration <= 0 {
		o.PointDuration = 400 * time.Millisecond
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.YieldEveryOps == 0 {
		o.YieldEveryOps = 8
	}
	return o
}

// threadSweep returns the thread counts of a scaling sweep.
func (o Options) threadSweep() []int {
	if o.Quick {
		return []int{o.Threads}
	}
	var ts []int
	for t := 1; t <= o.Threads; t *= 2 {
		ts = append(ts, t)
	}
	if len(ts) == 0 || ts[len(ts)-1] != o.Threads {
		ts = append(ts, o.Threads)
	}
	return ts
}

// Report is an experiment's rendered artefact.
type Report struct {
	ID     string
	Title  string
	Output string
	// Summary is a one-line verdict (cmd/partbench prints it after Output).
	Summary string
}

// Experiment is one reproducible artefact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Partition inventory and per-partition characteristics", Table1},
		{"table2", "Runtime overhead of partition tracking", Table2},
		{"table3", "Operation latency distributions per structure and read mode", Table3},
		{"fig2", "Multi-structure application: partitioned+tuned vs global configs", Fig2},
		{"fig3", "Visible vs invisible reads across update ratios", Fig3},
		{"fig4", "Conflict-detection granularity sweep and hill-climbing tuner", Fig4},
		{"fig5", "Vacation application: partitioned+tuned vs global configs", Fig5},
		{"fig6", "Dynamic workload phases: adaptive vs static configurations", Fig6},
		{"fig7", "Write-strategy ablation (ETL-WB / ETL-WT / CTL) per structure", Fig7},
		{"fig8", "Contention-manager ablation at high and low contention", Fig8},
		{"fig9", "Conflict-detection granularity vs access skew", Fig9},
		{"fig10", "Extension applications (genome, kmeans)", Fig10},
		{"fig11", "Long transactions (labyrinth): contention-management policies", Fig11},
		{"waltorture", "Durable log crash torture: conservation and acked floors across recoveries", WALTorture},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have: %s)", id, strings.Join(ids, ", "))
}
