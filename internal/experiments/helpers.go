package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/stm"
)

// newRuntime builds a fresh runtime for one experiment point.
func newRuntime(o Options, cfg *stm.PartConfig) *stm.Runtime {
	c := stm.Config{
		HeapWords:     1 << 22,
		YieldEveryOps: o.YieldEveryOps,
	}
	if cfg != nil {
		c.Default = cfg
	}
	return stm.MustNew(c)
}

// application is one benchmark program of the evaluation: build
// constructs it on rt and returns its operation.
type application struct {
	name string
	// extension marks the STAMP-inspired programs beyond the paper's suite.
	extension bool
	build     func(rt *stm.Runtime) bench.OpFunc
}

// catalog returns the evaluation's applications in Table 1 order, each
// shrunk under Quick.
func catalog(o Options) []application {
	mcfg := multiSetConfig(o)
	bcfg := apps.DefaultBankConfig()
	gcfg := apps.DefaultGenomeConfig()
	kcfg := apps.DefaultKMeansConfig()
	if o.Quick {
		bcfg.Accounts = 256
		gcfg.SegmentSpace, gcfg.Buckets, gcfg.LinkSlots = 1<<10, 64, 128
		kcfg.Points = 512
	}
	return []application{
		{"intset-multi", false, func(rt *stm.Runtime) bench.OpFunc {
			return apps.NewMultiSetApp(rt, mcfg).Op
		}},
		vacationApp(vacationConfig(o)),
		{"bank", false, func(rt *stm.Runtime) bench.OpFunc {
			b := apps.NewBank(rt, bcfg)
			return func(rng *workload.Rng) { b.Op(rng, bcfg) }
		}},
		{"genome", true, func(rt *stm.Runtime) bench.OpFunc {
			return apps.NewGenome(rt, gcfg).Op
		}},
		{"kmeans", true, func(rt *stm.Runtime) bench.OpFunc {
			km := apps.NewKMeans(rt, kcfg, 11)
			return func(rng *workload.Rng) { km.Op(rng, kcfg) }
		}},
	}
}

// appNamed returns the catalog entry called name.
func appNamed(o Options, name string) application {
	for _, a := range catalog(o) {
		if a.name == name {
			return a
		}
	}
	panic("experiments: no application " + name)
}

// vacationConfig returns the default vacation configuration, shrunk
// under Quick.
func vacationConfig(o Options) apps.VacationConfig {
	cfg := apps.DefaultVacationConfig()
	if o.Quick {
		cfg.ItemsPerTable, cfg.Customers = 128, 128
	}
	return cfg
}

// vacationApp is vacation under cfg (Fig. 5 raises its contention).
func vacationApp(cfg apps.VacationConfig) application {
	return application{"vacation", false, func(rt *stm.Runtime) bench.OpFunc {
		v := apps.NewVacation(rt, cfg)
		return func(rng *workload.Rng) { v.Op(rng) }
	}}
}

// intSetApp is one intset structure on its own.
func intSetApp(spec apps.IntSetSpec) application {
	return application{spec.Name, false, func(rt *stm.Runtime) bench.OpFunc {
		return apps.NewIntSet(rt, spec).Op
	}}
}

// partitioned constructs a on rt under profiling, runs 300 of its
// operations so the analyzer also sees the steady-state pointer stores,
// and installs the discovered plan.
func partitioned(rt *stm.Runtime, a application) (bench.OpFunc, *stm.Plan, error) {
	rt.StartProfiling()
	op := a.build(rt)
	rng := workload.NewRng(123)
	for i := 0; i < 300; i++ {
		op(rng)
	}
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		return nil, nil, fmt.Errorf("partitioning %s: %w", a.name, err)
	}
	return op, plan, nil
}

// regimes are the configurations Fig. 2, 5 and 10 compare, in report
// order: one global default (invisible reads), one global update-oriented
// configuration (visible reads, the "wrong one-size-fits-all" contrast),
// and automatic partitioning with the runtime tuner specializing each
// partition.
var regimes = []string{"global-invisible", "global-visible", "partitioned+tuned"}

const tunedRegime = 2

// regimeTuner is the tuner of the partitioned regime: visibility is the
// per-partition knob here; fig4 studies granularity.
func regimeTuner() stm.TunerConfig {
	tc := stm.DefaultTunerConfig()
	tc.Interval = 30 * time.Millisecond
	tc.HillClimb = false
	return tc
}

// runRegime measures a under regimes[r] with threads workers and returns
// its throughput. The partitioned regime runs tc's tuner and, as the
// paper reports steady-state throughput, gets ten tuner intervals of
// extra warm-up to converge.
func runRegime(o Options, a application, r int, tc stm.TunerConfig, threads int, seed uint64) (float64, error) {
	warmup := o.Warmup
	var op bench.OpFunc
	var rt *stm.Runtime
	if r == tunedRegime {
		rt = newRuntime(o, nil)
		var err error
		if op, _, err = partitioned(rt, a); err != nil {
			return 0, err
		}
		rt.StartTuner(tc)
		defer rt.StopTuner()
		warmup += 10 * tc.Interval
	} else {
		global := [...]stm.PartConfig{stm.DefaultPartConfig(), visibleConfig()}[r]
		rt = newRuntime(o, &global)
		op = a.build(rt)
	}
	res := bench.Run(rt, bench.RunConfig{
		Threads: threads,
		Warmup:  warmup,
		Measure: o.PointDuration,
		Seed:    seed,
	}, op)
	return res.Throughput, nil
}

// regimeFigure sweeps o's thread counts, measuring a under every regime
// with bench.Run seed threads+seed, and returns the rendered figure with
// the partitioned peak and the best global peak.
func regimeFigure(o Options, title string, a application, tc stm.TunerConfig, seed uint64) (string, float64, float64, error) {
	fig := stats.NewFigure(title, "threads", "operations per second")
	var tunedBest, globalBest float64
	for _, threads := range o.threadSweep() {
		for r, name := range regimes {
			tput, err := runRegime(o, a, r, tc, threads, uint64(threads)+seed)
			if err != nil {
				return "", 0, 0, err
			}
			fig.SeriesNamed(name).Add(float64(threads), tput)
			if r == tunedRegime {
				tunedBest = max(tunedBest, tput)
			} else {
				globalBest = max(globalBest, tput)
			}
		}
	}
	out := fig.Render()
	if o.CSV {
		out += "\n" + fig.CSV()
	}
	return out, tunedBest, globalBest, nil
}

// multiSetSpecs returns the fig2/table1 structure mix, shrunk under Quick.
func multiSetSpecs(o Options) []apps.IntSetSpec {
	specs := apps.DefaultMultiSetSpecs()
	if o.Quick {
		for i := range specs {
			specs[i].KeyRange /= 8
			if specs[i].Buckets > 0 {
				specs[i].Buckets /= 8
			}
		}
	}
	return specs
}

// multiSetConfig returns the full composite-application configuration
// (structures plus ledger), shrunk under Quick.
func multiSetConfig(o Options) apps.MultiSetConfig {
	ledger := apps.DefaultLedgerSpec()
	if o.Quick {
		ledger.Slots /= 4
	}
	return apps.MultiSetConfig{Specs: multiSetSpecs(o), Ledger: &ledger}
}

// visibleConfig returns the deliberately update-oriented global
// configuration used as the "wrong one-size-fits-all" contrast.
func visibleConfig() stm.PartConfig {
	c := stm.DefaultPartConfig()
	c.Read = stm.VisibleReads
	return c
}

// fmtFloat renders a float for table cells.
func fmtFloat(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// perTx divides safely.
func perTx(n, txs uint64) float64 {
	if txs == 0 {
		return 0
	}
	return float64(n) / float64(txs)
}
