// Command partbench regenerates the paper's tables and figures.
//
// Usage:
//
//	partbench -exp fig3                 # one experiment
//	partbench -exp all                  # the whole evaluation
//	partbench -exp fig2 -threads 16 -point 1s -csv
//
// Each experiment prints the rows/series of the corresponding artefact;
// -list prints the index (experiments.All).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id, or 'all' (see -list)")
		threads = flag.Int("threads", 8, "maximum worker threads (sweeps use powers of two up to this)")
		point   = flag.Duration("point", 400*time.Millisecond, "measured window per data point")
		warmup  = flag.Duration("warmup", 100*time.Millisecond, "warm-up before each measured window")
		yield   = flag.Uint64("yield", 8, "interleaving simulation: yield every ~N transactional ops (0 = off)")
		quick   = flag.Bool("quick", false, "shrink sweeps and sizes (smoke-test mode)")
		csv     = flag.Bool("csv", false, "append CSV output after each artefact")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.Options{
		Threads:       *threads,
		PointDuration: *point,
		Warmup:        *warmup,
		YieldEveryOps: *yield,
		Quick:         *quick,
		CSV:           *csv,
	}

	run := func(e experiments.Experiment) {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(rep.Output)
		fmt.Printf(">>> %s [%s]\n\n", rep.Summary, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, err := experiments.Lookup(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run(e)
}
