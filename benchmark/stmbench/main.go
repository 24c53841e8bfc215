// Command stmbench is the repository's benchmark: four workloads driven
// through the layers' public functions only, every output checked, every
// metric printed by name with its unit. See ../README.md.
//
// One workload, as the benchmark driver runs it (BENCHMARK.json):
//
//	go run ./benchmark/stmbench --workload kv-mixed --seed 1 --seconds 28 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// All four workloads, untraced and traced, as one JSON document:
//
//	go run ./benchmark/stmbench -seed 1 > a.json
//	go run ./benchmark/stmbench -seed 2 > b.json
//	go run ./benchmark/stmbench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	seconds float64 // measured time of the run
	trace   bool
	smoke   bool   // tiny structures and one set-up, for the name tests
	outDir  string // trace files and the redo log's scratch directories
	clients int    // C: generator goroutines, and connections for kv-*
}

// Fixed shape of a run: the measured time is cut into windows (an open-
// and a closed-loop phase each for kv-*), and every reported value is a
// median over the whole run: of all latency samples, and of all
// sliceDur-long throughput slices. Set-up is repeated and its median
// reported. A set-up of a few milliseconds is repeated more often, until
// the repeats add up to setupBudget: the median of five 4 ms timings
// moves by a quarter from run to run.
const (
	measuredWindows = 5
	minSetups       = 5
	maxSetups       = 25
	setupBudget     = time.Second
	warmupShare     = 0.10 // of seconds, before anything is measured
)

func (c *runConfig) windows() int {
	if c.smoke {
		return 2
	}
	return measuredWindows
}

// scale divides structure sizes in smoke runs.
func (c *runConfig) scale() int {
	if c.smoke {
		return 16
	}
	return 1
}

// defs returns the metrics this run reports: end-to-end ones untraced,
// per-layer ones traced.
func (c *runConfig) defs() []metricDef {
	if c.trace {
		return perLayer
	}
	return endToEnd
}

func (c *runConfig) newResult() *result { return newResult(c.defs()) }

// dur returns share of the run's measured time.
func (c *runConfig) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

var logOut io.Writer = os.Stderr

func logf(format string, args ...any) { fmt.Fprintf(logOut, "stmbench: "+format+"\n", args...) }

// timeSetups runs setup repeatedly (once in smoke and traced runs),
// tearing down all but the last, and records the median duration as
// setup_s.
func timeSetups[E any](cfg *runConfig, r *result, setup func() (E, error), teardown func(E) error) (E, error) {
	var env E
	var took []float64
	var total time.Duration
	for i := 0; i < maxSetups; i++ {
		if i > 0 {
			if cfg.smoke || cfg.trace || (i >= minSetups && total >= setupBudget) {
				break
			}
			if err := teardown(env); err != nil {
				return env, err
			}
		}
		// Hand freed memory back first, so every set-up pays for fresh
		// pages as a process's first set-up does; otherwise a repeat takes
		// 3 ms or 20 ms depending on whether it was handed a recycled heap.
		var none E
		env = none
		debug.FreeOSMemory()
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, err
		}
		total += time.Since(start)
		took = append(took, time.Since(start).Seconds())
		env = e
	}
	r.setMedian("setup_s", took)
	return env, nil
}

// runWorkload runs one workload in one mode and fills in what every
// workload reports the same way.
func runWorkload(w workloadDef, cfg runConfig) (*result, error) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	logf("%s: %s run, seed %d, %.3g s measured, C=%d", w.name, mode, cfg.seed, cfg.seconds, cfg.clients)
	r, err := w.run(&cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation was attempted", w.name)
	}
	return r, nil
}

// emitted returns r's metrics for defs in the output shape.
func emitted(r *result, defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

// runOne is the driver's entry: one workload, one mode, one result line.
func runOne(w workloadDef, cfg runConfig, out io.Writer) (correct bool, err error) {
	r, err := runWorkload(w, cfg)
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, emitted(r, cfg.defs())})
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return r.correct(), err
}

// Full-run document (no -workload): what -compare reads.
type docMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type docWorkload struct {
	Name      string               `json:"name"`
	Why       string               `json:"why"`
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	EndToEnd  map[string]docMetric `json:"end_to_end"`
	PerLayer  map[string]value     `json:"per_layer"`
}

type document struct {
	Benchmark   string        `json:"benchmark"`
	Seed        uint64        `json:"seed"`
	Seconds     float64       `json:"seconds"`
	Clients     int           `json:"clients"`
	NumCPU      int           `json:"nproc"`
	GoVersion   string        `json:"go"`
	FlushPolicy string        `json:"flush_policy"`
	Workloads   []docWorkload `json:"workloads"`
}

// flushPolicy states how kv-durable makes commits durable; it is fixed.
const flushPolicy = "kv-durable: DurabilitySync, default 200us group-commit interval, one fsync per group, 64 MiB segments"

// runAll runs every workload untraced and then traced, and prints one
// JSON document.
func runAll(cfg runConfig, out io.Writer) (correct bool, err error) {
	doc := document{
		Benchmark: "stmbench", Seed: cfg.seed, Seconds: cfg.seconds, Clients: cfg.clients,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), FlushPolicy: flushPolicy,
	}
	correct = true
	for _, w := range workloads {
		cfg.trace = false
		e2e, err := runWorkload(w, cfg)
		if err != nil {
			return false, err
		}
		cfg.trace = true
		layers, err := runWorkload(w, cfg)
		if err != nil {
			return false, err
		}
		dw := docWorkload{
			Name: w.name, Why: w.why,
			Correct:   e2e.correct() && layers.correct(),
			Attempted: e2e.attempted, Failed: e2e.failed,
			EndToEnd: map[string]docMetric{},
			PerLayer: emitted(layers, perLayer),
		}
		for _, d := range endToEnd {
			dw.EndToEnd[d.name] = docMetric{e2e.metrics[d.name], d.unit, e2e.spreads[d.name], d.better, d.bound}
		}
		correct = correct && dw.Correct
		doc.Workloads = append(doc.Workloads, dw)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return correct, enc.Encode(doc)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one result line (default: all, as one document)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 28, "measured seconds per run")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny structures and short windows (checks names, not speed)")
		outDir   = flag.String("out", "benchmark/out", "directory for trace files and redo-log scratch")
		compare  = flag.Bool("compare", false, "compare two full-run documents: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: stmbench -compare a.json b.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke,
		outDir: *outDir, clients: min(runtime.NumCPU(), 4),
	}
	var correct bool
	var err error
	if *workload == "" {
		correct, err = runAll(cfg, os.Stdout)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
		for _, w := range workloads {
			if w.name == *workload {
				correct, err = runOne(w, cfg, os.Stdout)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}
