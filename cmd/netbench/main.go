// Command netbench drives open-loop keyed traffic at a running stmd and
// reports coordinated-omission-safe latency percentiles.
//
// Usage:
//
//	stmd -addr :7437 &
//	netbench -addr localhost:7437 -rate 20000 -measure 5s
//	netbench -addr localhost:7437 -rate 5000,10000,20000,40000 -csv
//
// The load is an open-loop schedule (internal/bench.RunOpenLoopFunc):
// arrival i is due at start + i/rate whether or not the server keeps up,
// and each request's latency is measured from its intended start, so
// queueing during server stalls lands in the tail with its true weight.
// Workers multiplex over -conns pipelined connections (several workers
// per connection exercises the request-id pipelining path).
//
// Traffic per arrival: with probability -read-frac, a -batch-key GET
// batch (served from the snapshot store, abort-free, when the server has
// history); otherwise a two-key transfer batch (ADD −d / ADD +d) — the
// conserved-sum workload the integration tests verify.
//
// netbench exits 1 when any request failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/workload"
	"repro/stmnet"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7437", "stmd address")
		conns    = flag.Int("conns", 4, "client connections (workers share them, pipelining)")
		threads  = flag.Int("threads", 16, "open-loop workers draining the schedule")
		rates    = flag.String("rate", "10000", "offered rates in ops/s, comma-separated sweep")
		warmup   = flag.Duration("warmup", 500*time.Millisecond, "unmeasured warm-up per point")
		measure  = flag.Duration("measure", 2*time.Second, "measured window per point")
		keys     = flag.Int("keys", 1<<12, "distinct keys")
		readFrac = flag.Float64("read-frac", 0.5, "fraction of arrivals that are snapshot GET batches")
		batchGet = flag.Int("batch", 8, "keys per GET batch")
		seed     = flag.Uint64("seed", 1, "workload seed")
		csv      = flag.Bool("csv", false, "append CSV rows (rate,achieved,p50,p99,p999,lag)")
	)
	flag.Parse()

	var sweep []float64
	for _, f := range strings.Split(*rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r <= 0 {
			fmt.Fprintf(os.Stderr, "netbench: bad -rate %q\n", f)
			os.Exit(2)
		}
		sweep = append(sweep, r)
	}

	// Preload the key space so measured traffic never pays first-touch
	// interning, then warm a starting balance into every key.
	setup, err := stmnet.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netbench: %v\n", err)
		os.Exit(1)
	}
	const seedBalance = 1 << 20
	for base := 0; base < *keys; base += 256 {
		b := stmnet.NewBatch()
		for k := base; k < base+256 && k < *keys; k++ {
			b.Put(keyName(k), seedBalance)
		}
		if _, err := setup.Do(b); err != nil {
			fmt.Fprintf(os.Stderr, "netbench: preload: %v\n", err)
			os.Exit(1)
		}
	}
	setup.Close()

	if *csv {
		fmt.Println("rate,achieved,p50_us,p99_us,p999_us,lag_ms")
	}
	var failed uint64
	for _, rate := range sweep {
		res, errs := runPoint(*addr, bench.OpenLoopConfig{
			Threads: *threads,
			Rate:    rate,
			Warmup:  *warmup,
			Measure: *measure,
			Seed:    *seed,
		}, *conns, *keys, *readFrac, *batchGet)
		failed += errs

		lat := res.Latency
		if *csv {
			fmt.Printf("%.0f,%.0f,%.1f,%.1f,%.1f,%.1f\n",
				rate, res.Achieved,
				us(lat.Quantile(0.50)), us(lat.Quantile(0.99)), us(lat.Quantile(0.999)),
				float64(res.Lag)/float64(time.Millisecond))
		} else {
			fmt.Printf("rate %8.0f/s  achieved %8.0f/s  p50 %8s  p99 %8s  p999 %8s  max %8s  lag %v  errs %d\n",
				rate, res.Achieved,
				time.Duration(lat.Quantile(0.50)), time.Duration(lat.Quantile(0.99)),
				time.Duration(lat.Quantile(0.999)), time.Duration(lat.Max()),
				res.Lag.Round(time.Millisecond), errs)
		}
	}

	// One last connection for the server's view of the run.
	if c, err := stmnet.Dial(*addr); err == nil {
		if p, err := c.Stats(); err == nil {
			fmt.Printf("server: %d txns (%d read-only, %d snapshot), %d aborts (%d snapshot), %d keys\n",
				p.Server.Txns, p.Server.ReadOnlyTxns, p.Server.SnapshotTxns,
				p.Server.TxnAborts, p.Server.SnapshotAborts, p.Server.Keys)
		}
		c.Close()
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "netbench: %d requests failed\n", failed)
		os.Exit(1)
	}
}

// runPoint measures one offered rate and returns the open-loop result
// plus the number of failed requests (each also costs its worker a
// latency sample recorded at the failure time, so errors do not hide).
func runPoint(addr string, cfg bench.OpenLoopConfig, conns, keys int, readFrac float64, batchGet int) (bench.OpenLoopResult, uint64) {
	clients := make([]*stmnet.Client, conns)
	for i := range clients {
		c, err := stmnet.Dial(addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netbench: %v\n", err)
			os.Exit(1)
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	var errors atomic.Uint64
	res := bench.RunOpenLoopFunc(cfg, func(worker int) (bench.IndexedOpFunc, func()) {
		c := clients[worker%len(clients)]
		return func(rng *workload.Rng, i uint64) {
			var b *stmnet.Batch
			if rng.Float64() < readFrac {
				b = stmnet.NewBatch()
				for j := 0; j < batchGet; j++ {
					b.Get(keyName(rng.Intn(keys)))
				}
			} else {
				from, to := rng.Intn(keys), rng.Intn(keys)
				if from == to {
					to = (to + 1) % keys
				}
				d := uint64(rng.Intn(100) + 1)
				b = stmnet.NewBatch().
					Add(keyName(from), stmnet.Neg(d)).
					Add(keyName(to), d)
			}
			if _, err := c.Do(b); err != nil {
				errors.Add(1)
			}
		}, nil
	})
	return res, errors.Load()
}

func keyName(k int) string { return "acct:" + strconv.Itoa(k) }

func us(ns uint64) float64 { return float64(ns) / 1e3 }
