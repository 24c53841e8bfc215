package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/stm"
)

// The snapshot-audit workload: the engine used the opposite way from
// multiset. One writer makes small transfers at a fixed rate while
// readers scan the whole table in snapshot mode, one 32 k-word read-only
// transaction after another, and check that every scan sees the exact
// total. The writer's rate is fixed so the work a scan has to do is the
// same from one commit of the repository to the next.

const (
	auditAccounts    = 4096
	auditWords       = 8 // words per account; word 0 is the balance
	auditInitBalance = 1 << 20
	auditWriterRate  = 20000 // transfers per second
	auditMaxAttempts = 64
	auditStreamLen   = 1 << 18
)

type auditEnv struct {
	rt       *stm.Runtime
	accounts []stm.Addr
	xfers    []xfer
}

func auditSetup(cfg *runConfig, xfers []xfer) (*auditEnv, error) {
	rt, err := stm.New(stm.Config{SnapshotHistory: 1 << 16})
	if err != nil {
		return nil, err
	}
	e := &auditEnv{rt: rt, accounts: make([]stm.Addr, auditAccounts/cfg.scale()), xfers: xfers}
	site := rt.RegisterSite("audit.account")
	for base := 0; base < len(e.accounts); base += 64 {
		err := rt.Run(func(tx *stm.Tx) error {
			for i := base; i < min(base+64, len(e.accounts)); i++ {
				a := tx.Alloc(site, auditWords)
				tx.StoreWords(a, []uint64{auditInitBalance, 0, 0, 0, 0, 0, 0, 0})
				e.accounts[i] = a
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *auditEnv) total() uint64 { return uint64(len(e.accounts)) * auditInitBalance }

// auditWriter is the paced writer. It runs for the whole measured part
// of the run; count and errs may be read while it runs.
type auditWriter struct {
	count, errs atomic.Uint64
	stop        chan struct{}
	done        sync.WaitGroup
}

// startWriter starts the writer: arrival i is due at start + i/rate, and
// each wake-up issues every arrival that has come due (the host cannot
// sleep for less than about a millisecond, so arrivals go out in short
// bursts at the fixed average rate).
func (e *auditEnv) startWriter() *auditWriter {
	w := &auditWriter{stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		var from, to stm.Addr
		var d uint64
		var a, b [auditWords]uint64
		body := func(tx *stm.Tx) error {
			tx.LoadWords(from, a[:])
			tx.LoadWords(to, b[:])
			a[0] -= d
			b[0] += d
			a[1]++
			b[1]++
			tx.StoreWords(from, a[:])
			tx.StoreWords(to, b[:])
			return nil
		}
		start := time.Now()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for issued := 0; ; {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			for due := int(time.Since(start).Seconds() * auditWriterRate); issued < due; issued++ {
				x := e.xfers[issued%len(e.xfers)]
				from, to, d = e.accounts[x.from], e.accounts[x.to], uint64(x.d)
				if err := e.rt.Run(body); err != nil {
					logf("snapshot-audit: transfer failed: %v", err)
					w.errs.Add(1)
				}
				w.count.Add(1)
			}
		}
	}()
	return w
}

func (w *auditWriter) halt() {
	close(w.stop)
	w.done.Wait()
}

// auditReader is one scanning goroutine's state.
type auditReader struct {
	env    *auditEnv
	r      *result
	sum    uint64
	aborts int
	lat    []int64
	words  [auditWords]uint64
	opts   []stm.TxOpt
	tr     *tracer
}

func (e *auditEnv) newReader(r *result, tr *tracer) *auditReader {
	a := &auditReader{env: e, r: r, tr: tr, lat: make([]int64, 0, 1<<16)}
	a.opts = []stm.TxOpt{
		stm.Snapshot(),
		stm.MaxAttempts(auditMaxAttempts),
		stm.OnAbort(func(stm.AbortCause, int) { a.aborts++ }),
	}
	return a
}

func (a *auditReader) body(tx *stm.Tx) error {
	a.sum = 0
	for _, acct := range a.env.accounts {
		tx.LoadWords(acct, a.words[:])
		a.sum += a.words[0]
	}
	return nil
}

// scan runs one full-table snapshot scan and checks its total.
func (a *auditReader) scan() (ops, failed int) {
	start := time.Now()
	err := a.env.rt.Run(a.body, a.opts...)
	end := time.Now()
	a.lat = append(a.lat, int64(end.Sub(start)))
	if a.tr != nil {
		a.tr.add(spScan, -1, uint32(len(a.tr.spans)), int64(start.Sub(a.tr.epoch)), int64(end.Sub(a.tr.epoch)))
	}
	if err != nil {
		logf("snapshot-audit: scan failed: %v", err)
		return 1, 1
	}
	if a.sum != a.env.total() {
		a.r.violated("snapshot-audit: a scan saw total %d, want %d", a.sum, a.env.total())
		return 1, 1
	}
	return 1, 0
}

// auditPass is one closed-loop pass of n scanning readers.
type auditPass struct {
	closedResult
	lat    []int64
	aborts int
}

func (e *auditEnv) pass(r *result, n int, dur time.Duration, tr *tracer) auditPass {
	readers := make([]*auditReader, n)
	for i := range readers {
		readers[i] = e.newReader(r, tr)
	}
	p := auditPass{closedResult: runClosed(n, dur, func(w int) (int, int) { return readers[w].scan() })}
	for _, a := range readers {
		p.lat = append(p.lat, a.lat...)
		p.aborts += a.aborts
	}
	sortInt64(p.lat)
	r.attempted += uint64(p.ops)
	r.failed += uint64(p.failed)
	return p
}

// measure runs the warm-up and the measured (or traced) passes while the
// writer runs.
func (e *auditEnv) measure(cfg *runConfig, r *result, writer *auditWriter, hash streamHash) error {
	readers := max(cfg.clients-1, 1)
	e.pass(r, readers, cfg.dur(warmupShare), nil)

	if !cfg.trace {
		r.measureWindows(cfg, func(_ int, dur time.Duration) ([]int64, []float64) {
			p := e.pass(r, readers, dur, nil)
			return p.lat, p.rates
		})
		return nil
	}

	m := r.metrics
	m["client.stream_hash"] = hash.metric()

	// Normal load with the counters read around it.
	e.rt.SetLatencyTracking(true)
	var acc counters
	before := readCounters(e.rt, nil)
	wrote, start := writer.count.Load(), time.Now()
	normal := e.pass(r, readers, cfg.dur(0.4), nil)
	wrote, took := writer.count.Load()-wrote, time.Since(start)
	acc.accumulate(before, readCounters(e.rt, nil))
	e.rt.SetLatencyTracking(false)
	acc.layerMetrics(r, uint64(normal.ops)+wrote, 0)
	m["writer_tput_ops_s"] = float64(wrote) / took.Seconds()
	m["client.achieved_share"] = m["writer_tput_ops_s"] / auditWriterRate
	m["core.snapshot_abort_share"] = share(uint64(normal.aborts), uint64(normal.ops))
	r.setClientTail(normal.lat)

	// One reader, untraced then traced.
	untraced := e.pass(r, 1, cfg.dur(0.15), nil)
	tr := newTracer()
	traced := e.pass(r, 1, cfg.dur(0.3), tr)
	r.setRootOnlyTrace(tr, traced.closedResult, untraced.closedResult)
	return tr.write(cfg.outDir, "snapshot-audit")
}

func runAudit(cfg *runConfig) (*result, error) {
	r := cfg.newResult()
	xfers, hash := genTransfers(cfg.seed, auditStreamLen/cfg.scale(), auditAccounts/cfg.scale())
	env, err := timeSetups(cfg, r,
		func() (*auditEnv, error) { return auditSetup(cfg, xfers) },
		func(*auditEnv) error { return nil }) // a volatile runtime holds nothing to release
	if err != nil {
		return nil, err
	}
	rt := env.rt

	writer := env.startWriter()
	err = env.measure(cfg, r, writer, hash)
	writer.halt()
	if err != nil {
		return nil, err
	}
	r.attempted += writer.count.Load()
	r.failed += writer.errs.Load()
	if cfg.trace {
		endGauges(r, rt)
	}

	// With the writer stopped, an ordinary read-only transaction must
	// see the same total the snapshot scans did.
	var sum uint64
	err = rt.Run(func(tx *stm.Tx) error {
		sum = 0
		for _, a := range env.accounts {
			sum += tx.Load(a)
		}
		return nil
	}, stm.ReadOnly())
	if err != nil {
		return nil, fmt.Errorf("final audit: %w", err)
	}
	if sum != env.total() {
		r.violated("snapshot-audit: final total %d, want %d", sum, env.total())
	}
	return r, nil
}
