package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/stm"
	"repro/stmnet"
)

// The two network workloads: an in-process server on loopback TCP driven
// through stmnet.Client.Do. Every window is an open-loop phase at a
// fixed rate (intended-start latency) followed by a closed-loop phase
// (throughput), and the conserved balance sum is checked after each.
//
// The open-loop phase keeps one request in flight per connection: its
// workers wait for their arrivals by yielding (see waitUntil), and more
// waiters than connections starve the network poller. The closed-loop
// phase keeps inflight requests per connection outstanding, enough to
// keep both the processors (kv-mixed) or the group commit (kv-durable)
// busy, so it measures work per request and not wake-up latency.

type kvParams struct {
	name      string
	durable   bool
	keys      int
	balance   uint64  // preloaded into word 0 of every key; 0: no preload, the first ADD creates a key
	readShare float64 // share of requests that are 8-key GET batches
	rate      float64 // open-loop arrivals per second
	inflight  int     // closed loop: Do calls in flight per connection
}

const (
	kvArity     = 8
	kvStreamLen = 1 << 18 // requests generated up front; replayed cyclically
	kvBatchKeys = 256     // keys per preload / sum-check batch
	// A transfer changes two 8-byte words: the user bytes one durable
	// commit carries, for wal.write_amp.
	kvTransferBytes = 16
)

// total is the conserved balance sum (two's-complement: a key created by
// ADD starts at zero and may go "negative").
func (p kvParams) total() uint64 { return uint64(p.keys) * p.balance }

func runKVMixed(cfg *runConfig) (*result, error) {
	// 65 536 keys: sixteen per bucket of the 4 096-bucket key directory.
	// With one request in flight per connection the closed loop mostly
	// measured how fast a parked goroutine wakes (medians 63-75 k req/s
	// from run to run); with four the processors stay busy (72-78 k).
	return runKV(cfg, kvParams{name: "kv-mixed", keys: 1 << 16, balance: 1 << 20, readShare: 0.5, rate: 40000, inflight: 4})
}

func runKVDurable(cfg *runConfig) (*result, error) {
	// Eight in flight per connection: callers are parked on fsync, not
	// runnable, so group commit can form groups within the core budget.
	// No preload: creating a key is one Sync commit, so preloading is
	// 4 096 fsyncs in a row, and this disk's fsync time drifted by more
	// than any bound within the hour (set-up read 0.73 s, later 1.23 s).
	// The warm-up's first touches create the keys instead.
	return runKV(cfg, kvParams{name: "kv-durable", durable: true, keys: 1 << 12, rate: 2000, inflight: 8})
}

// kvEnv is one running server with its clients.
type kvEnv struct {
	p       kvParams
	rt      *stm.Runtime
	srv     *server.Server
	served  chan error
	clients []*stmnet.Client
	names   []string
	walDir  string
	ops     []kvOp
	cursor  atomic.Uint64
}

// kvSetup starts the runtime and server, connects the clients and
// preloads the keys (when the workload has a starting balance):
// everything a deployment does before its first request.
func kvSetup(cfg *runConfig, p kvParams, names []string, ops []kvOp, walDir string) (*kvEnv, error) {
	sc := stm.Config{SnapshotHistory: 1 << 16}
	if p.durable {
		sc = stm.Config{WAL: &stm.WALConfig{Dir: walDir, Durability: stm.DurabilitySync}}
	}
	rt, err := stm.New(sc)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Runtime: rt, Arity: kvArity})
	if err != nil {
		return nil, errors.Join(err, rt.Close())
	}
	e := &kvEnv{p: p, rt: rt, srv: srv, served: make(chan error, 1), names: names, walDir: walDir, ops: ops}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close())
	}
	go func() { e.served <- srv.Serve(lis) }()
	for i := 0; i < cfg.clients; i++ {
		c, err := stmnet.Dial(lis.Addr().String())
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.clients = append(e.clients, c)
	}
	for base := 0; p.balance != 0 && base < len(names); base += kvBatchKeys {
		b := stmnet.NewBatch()
		for _, name := range names[base:min(base+kvBatchKeys, len(names))] {
			b.Put(name, p.balance)
		}
		if _, err := e.clients[0].Do(b); err != nil {
			return nil, errors.Join(fmt.Errorf("preload: %w", err), e.close())
		}
	}
	return e, nil
}

// close disconnects the clients and shuts the server down (which closes
// the runtime and its redo log).
func (e *kvEnv) close() error {
	var errs []error
	for _, c := range e.clients {
		// The reader goroutine reports the closed socket; that is the
		// expected way for it to end.
		_ = c.Close()
	}
	e.clients = nil
	errs = append(errs, e.srv.Close(), <-e.served)
	return errors.Join(errs...)
}

func (e *kvEnv) nextOp() *kvOp {
	return &e.ops[e.cursor.Add(1)%uint64(len(e.ops))]
}

// do issues op on c and checks the reply against what was asked.
func (e *kvEnv) do(c *stmnet.Client, op *kvOp) ([]stmnet.Result, error) {
	b := stmnet.NewBatch()
	if op.isGet() {
		for _, k := range op.keys {
			b.Get(e.names[k])
		}
	} else {
		b.Add(e.names[op.keys[0]], stmnet.Neg(uint64(op.delta))).
			Add(e.names[op.keys[1]], uint64(op.delta))
	}
	res, err := c.Do(b) // Do itself fails a reply whose length differs from the batch's
	if err != nil {
		return nil, err
	}
	if op.isGet() {
		for i, r := range res {
			if !r.Flag || len(r.Vals) != kvArity {
				return nil, fmt.Errorf("GET %d of a batch: found=%v with %d words, want a %d-word value", i, r.Flag, len(r.Vals), kvArity)
			}
		}
	}
	return res, nil
}

// issue runs the next op of the stream for worker w; it reports success.
func (e *kvEnv) issue(w int) bool {
	_, err := e.do(e.clients[w%len(e.clients)], e.nextOp())
	if err != nil {
		logf("%s: request failed: %v", e.p.name, err)
	}
	return err == nil
}

func (e *kvEnv) issueClosed(w int) (ops, failed int) {
	if e.issue(w) {
		return 1, 0
	}
	return 1, 1
}

func (e *kvEnv) workers() int { return len(e.clients) * e.p.inflight }

// checkSum reads every key through the server and compares the balance
// total with what was preloaded: transfers conserve it.
func (e *kvEnv) checkSum(r *result, when string) {
	var sum uint64
	for base := 0; base < len(e.names); base += kvBatchKeys {
		b := stmnet.NewBatch()
		for _, name := range e.names[base:min(base+kvBatchKeys, len(e.names))] {
			b.Get(name)
		}
		res, err := e.clients[0].Do(b)
		if err != nil {
			r.violated("%s: %s: balances unreadable: %v", e.p.name, when, err)
			return
		}
		for _, x := range res {
			sum += x.Val()
		}
	}
	if want := e.p.total(); sum != want {
		r.violated("%s: %s: balance sum %d, want %d", e.p.name, when, sum, want)
	}
}

// window is one measured window: an open-loop phase then a
// closed-loop phase of dur/2 each. When acc is non-nil the counters are
// read around each phase and their change accumulated.
func (e *kvEnv) window(r *result, dur time.Duration, acc *counters, label string) (openResult, closedResult) {
	phase := func(run func()) {
		var before counters
		if acc != nil {
			before = readCounters(e.rt, e.srv)
		}
		run()
		if acc != nil {
			acc.accumulate(before, readCounters(e.rt, e.srv))
		}
	}
	var o openResult
	var c closedResult
	phase(func() { o = runOpen(len(e.clients), e.p.rate, dur/2, e.issue) })
	e.checkSum(r, label+" open phase")
	phase(func() { c = runClosed(e.workers(), dur/2, e.issueClosed) })
	e.checkSum(r, label+" closed phase")
	r.attempted += uint64(o.arrivals + c.ops)
	r.failed += uint64(o.failed + c.failed)
	return o, c
}

func runKV(cfg *runConfig, p kvParams) (*result, error) {
	p.keys /= cfg.scale()
	names := make([]string, p.keys)
	for i := range names {
		names[i] = fmt.Sprintf("acct:%07d", i)
	}
	ops, hash := genKV(cfg.seed, kvStreamLen/cfg.scale(), p.keys, p.readShare)

	r := cfg.newResult()

	// Every set-up gets a fresh redo-log directory under outDir: on the
	// repository's disk, so fsync is a real one.
	scratch := filepath.Join(cfg.outDir, fmt.Sprintf("%s-%d", p.name, os.Getpid()))
	if p.durable {
		defer os.RemoveAll(scratch)
	}
	setups := 0
	env, err := timeSetups(cfg, r,
		func() (*kvEnv, error) {
			setups++
			return kvSetup(cfg, p, names, ops, filepath.Join(scratch, fmt.Sprintf("wal-%d", setups)))
		},
		(*kvEnv).close)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			_ = env.close() // error path only; the first error is already being returned
		}
	}()

	runClosed(env.workers(), cfg.dur(warmupShare), env.issueClosed)
	env.checkSum(r, "after warm-up")

	if !cfg.trace {
		r.measureWindows(cfg, func(w int, dur time.Duration) ([]int64, []float64) {
			o, c := env.window(r, dur, nil, fmt.Sprintf("window %d", w))
			return o.lat, c.rates
		})
	} else {
		r.metrics["client.stream_hash"] = hash.metric()
		if err := env.tracedRun(cfg, r); err != nil {
			return nil, err
		}
	}

	// Record where every value lives, then restart: a durable server
	// must come back with the same balances at the same addresses.
	var addrs []stm.Addr
	for _, name := range names {
		if addr, ok := env.srv.Space().Lookup(name); ok {
			addrs = append(addrs, addr)
		} else if p.balance != 0 {
			r.violated("%s: preloaded key %q is not in the key space", p.name, name)
		}
	}
	closed = true
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if p.durable {
		if err := kvRestartCheck(r, p, env.walDir, addrs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// kvRestartCheck reopens the runtime on the redo log the server just
// closed and re-checks the balance sum at the recorded value addresses.
func kvRestartCheck(r *result, p kvParams, walDir string, addrs []stm.Addr) error {
	size, err := dirBytes(walDir)
	if err != nil {
		return err
	}
	r.metrics["wal.disk_bytes_end"] = float64(size)
	start := time.Now()
	rt, err := stm.New(stm.Config{WAL: &stm.WALConfig{Dir: walDir, Durability: stm.DurabilitySync}})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", walDir, err)
	}
	r.metrics["wal.recover_ms"] = float64(time.Since(start).Microseconds()) / 1e3
	var sum uint64
	err = rt.Run(func(tx *stm.Tx) error {
		sum = 0
		for _, a := range addrs {
			sum += tx.Load(a)
		}
		return nil
	}, stm.ReadOnly())
	if err != nil {
		return errors.Join(err, rt.Close())
	}
	if want := p.total(); sum != want {
		r.violated("%s: after restart: balance sum %d, want %d", p.name, sum, want)
	}
	return rt.Close()
}

// tracedRun produces the per-layer metrics: two normal windows with the
// counters read around every phase, then one untraced and one traced
// closed-loop pass with a single generator.
func (e *kvEnv) tracedRun(cfg *runConfig, r *result) error {
	e.rt.SetLatencyTracking(true)
	var acc counters
	var lat []int64
	var ops int
	var lag time.Duration
	achieved := 1.0
	for w := 0; w < 2; w++ {
		var goroutines atomic.Int64
		mid := time.AfterFunc(cfg.dur(0.05), func() { goroutines.Store(int64(runtime.NumGoroutine())) })
		o, c := e.window(r, cfg.dur(0.2), &acc, fmt.Sprintf("traced-run window %d", w))
		mid.Stop()
		r.metrics["server.goroutines_mid"] = float64(goroutines.Load())
		lat = append(lat, o.lat...)
		ops += o.arrivals + c.ops
		lag = max(lag, o.maxLag)
		achieved = min(achieved, o.achieved/e.p.rate)
	}
	e.rt.SetLatencyTracking(false)
	acc.layerMetrics(r, uint64(ops), kvTransferBytes)
	sortInt64(lat)
	r.setClientTail(lat)
	m := r.metrics
	m["client.sched_lag_ms"] = float64(lag.Microseconds()) / 1e3
	m["client.achieved_share"] = achieved
	// The server's snapshot batches are the only snapshot transactions
	// here, so the engine-level share is the server's.
	m["core.snapshot_abort_share"] = m["server.snapshot_abort_share"]

	single := func(int) (int, int) { return e.issueClosed(0) }
	untraced := runClosed(1, cfg.dur(0.15), single)
	r.attempted += uint64(untraced.ops)
	r.failed += uint64(untraced.failed)

	var wlog *wal.Log
	if e.p.durable {
		dir := e.walDir + "-standalone"
		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return fmt.Errorf("standalone redo log: %w", err)
		}
		wlog = l
	}
	tr := newTracer()
	t := kvTraced{env: e, tr: tr, wlog: wlog}
	traced := runClosed(1, cfg.dur(0.3), t.issue)
	if wlog != nil {
		if err := wlog.Close(); err != nil {
			return fmt.Errorf("standalone redo log: %w", err)
		}
	}
	e.checkSum(r, "after traced pass")
	r.attempted += uint64(traced.ops)
	r.failed += uint64(traced.failed)

	// The anatomy of the median request. Its parts add up to its root
	// exactly; trace.accounted_share compares that sum with the median of
	// all roots, so it shows whether the profiled requests are typical.
	p := tr.medianRequestProfile()
	for name, metric := range map[spanName]string{
		spEncodeReq: "wire.encode_req_ns", spDecodeReq: "wire.decode_req_ns",
		spEncodeResp: "wire.encode_resp_ns", spDecodeResp: "wire.decode_resp_ns",
		spResolve: "server.resolve_ns", spCoreRun: "core.run_ns", spWalPublish: "wal.publish_ns",
	} {
		m[metric] = p.byName[name]
	}
	m["wal.durable_wait_us"] = p.byName[spWalDurableWait] / 1e3
	m["server.residual_us"] = p.self / 1e3
	r.setTraceSummary(tr, traced, untraced)
	m["trace.accounted_share"] = (p.direct + p.self) / tr.medianNs(isRoot)
	if traced.ops > 0 {
		m["wire.req_bytes"] = float64(t.reqBytes) / float64(traced.ops)
		m["wire.resp_bytes"] = float64(t.respBytes) / float64(traced.ops)
	}
	endGauges(r, e.rt)
	return tr.write(cfg.outDir, e.p.name)
}

// kvTraced issues requests one at a time and, after each, replays it
// through the layers' public functions to time them one by one.
type kvTraced struct {
	env  *kvEnv
	tr   *tracer
	wlog *wal.Log // standalone log for the wal spans; nil when not durable
	req  uint32

	reqBytes, respBytes int
	buf                 []byte
	addrs               [kvGetKeys]stm.Addr
	words               [kvGetKeys * kvArity]uint64
	walOps              [2]wal.Op
}

var (
	noteAbort   = stm.OnAbort(func(stm.AbortCause, int) {})
	replayGet   = []stm.TxOpt{stm.Snapshot(), noteAbort}
	replayWrite = []stm.TxOpt{noteAbort}
)

func (t *kvTraced) issue(int) (ops, failed int) {
	e, tr := t.env, t.tr
	op := e.nextOp()
	t.req++

	start := tr.now()
	res, err := e.do(e.clients[0], op)
	root := tr.add(spRoot, -1, t.req, start, tr.now())
	if err != nil {
		logf("%s: traced request failed: %v", e.p.name, err)
		return 1, 1
	}

	// The same request, as the client encodes it.
	req := wire.TxnReq{ID: uint64(t.req), Ops: make([]wire.Op, op.n)}
	for i := range req.Ops {
		req.Ops[i] = wire.Op{Code: wire.OpGet, Key: e.names[op.keys[i]]}
		if !op.isGet() {
			req.Ops[i].Code = wire.OpAdd
			req.Ops[i].Delta = uint64(op.delta)
		}
	}
	if !op.isGet() {
		req.Ops[0].Delta = stmnet.Neg(uint64(op.delta))
	}
	start = tr.now()
	payload, err := wire.AppendTxnReq(t.buf[:0], &req)
	frame := wire.AppendFrame(nil, payload)
	tr.add(spEncodeReq, root, t.req, start, tr.now())
	t.buf = payload
	t.reqBytes += len(frame)

	// As the server decodes it.
	start = tr.now()
	payload, _, ferr := wire.DecodeFrame(frame)
	decoded, derr := wire.DecodeTxnReq(payload)
	tr.add(spDecodeReq, root, t.req, start, tr.now())
	if err = errors.Join(err, ferr, derr); err != nil {
		logf("%s: request replay through wire failed: %v", e.p.name, err)
		return 1, 1
	}

	// As the server resolves its keys.
	space := e.srv.Space()
	start = tr.now()
	for i := range decoded.Ops {
		if decoded.Ops[i].Code == wire.OpGet {
			t.addrs[i], _ = space.Lookup(decoded.Ops[i].Key)
		} else {
			t.addrs[i], err = space.Intern(decoded.Ops[i].Key)
		}
	}
	tr.add(spResolve, root, t.req, start, tr.now())
	if err != nil {
		logf("%s: key resolution failed: %v", e.p.name, err)
		return 1, 1
	}

	// As the server runs it: the same reads or the same transfer again
	// (which conserves the sum), on the resolved addresses.
	start = tr.now()
	if op.isGet() {
		err = e.rt.Run(t.getBody, replayGet...)
	} else {
		t.walOps[0].Val, t.walOps[1].Val = 0, 0
		delta := uint64(op.delta)
		err = e.rt.Run(func(tx *stm.Tx) error {
			from := tx.Load(t.addrs[0]) + stmnet.Neg(delta)
			tx.Store(t.addrs[0], from)
			to := tx.Load(t.addrs[1]) + delta
			tx.Store(t.addrs[1], to)
			t.walOps[0] = wal.Op{Addr: uint64(t.addrs[0]), Val: from}
			t.walOps[1] = wal.Op{Addr: uint64(t.addrs[1]), Val: to}
			return nil
		}, replayWrite...)
	}
	run := tr.add(spCoreRun, root, t.req, start, tr.now())
	if err != nil {
		logf("%s: transaction replay failed: %v", e.p.name, err)
		return 1, 1
	}

	// What that commit costs in the redo log alone: a transfer-shaped
	// record through a standalone log.
	if t.wlog != nil && !op.isGet() {
		start = tr.now()
		seq := t.wlog.PublishCommit(uint64(t.req), t.walOps[:])
		mid := tr.now()
		durable := t.wlog.WaitDurable(seq)
		end := tr.now()
		tr.add(spWalPublish, run, t.req, start, mid)
		tr.add(spWalDurableWait, run, t.req, mid, end)
		if !durable {
			logf("%s: standalone redo log did not make record %d durable", e.p.name, seq)
			return 1, 1
		}
	}

	// The reply, as the server encodes it and the client decodes it.
	resp := wire.TxnResp{ID: req.ID, Status: wire.StatusOK, Results: make([]wire.Result, len(res))}
	for i, x := range res {
		resp.Results[i] = wire.Result{Flag: x.Flag, Vals: x.Vals}
	}
	start = tr.now()
	frame = wire.AppendFrame(nil, wire.AppendTxnResp(nil, &resp))
	tr.add(spEncodeResp, root, t.req, start, tr.now())
	t.respBytes += len(frame)

	start = tr.now()
	payload, _, ferr = wire.DecodeFrame(frame)
	_, derr = wire.DecodeTxnResp(payload)
	tr.add(spDecodeResp, root, t.req, start, tr.now())
	if err = errors.Join(ferr, derr); err != nil {
		logf("%s: reply replay through wire failed: %v", e.p.name, err)
		return 1, 1
	}
	return 1, 0
}

// getBody is the replayed GET batch: one whole-value read per key.
func (t *kvTraced) getBody(tx *stm.Tx) error {
	for i := 0; i < kvGetKeys; i++ {
		tx.LoadWords(t.addrs[i], t.words[i*kvArity:(i+1)*kvArity])
	}
	return nil
}
