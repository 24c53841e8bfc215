package server_test

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/stm"
	"repro/stmnet"
)

// rawPeer speaks the wire protocol over a bare socket, so a test decides
// exactly which bytes are in flight and when. Replies are read on the
// test's goroutine; ReadFrame checks every frame's CRC.
type rawPeer struct {
	t   *testing.T
	nc  net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawPeer{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func reqFrame(t *testing.T, id uint64, ops ...wire.Op) []byte {
	t.Helper()
	payload, err := wire.AppendTxnReq(nil, &wire.TxnReq{ID: id, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	return wire.AppendFrame(nil, payload)
}

func (p *rawPeer) write(b []byte) {
	p.t.Helper()
	if _, err := p.nc.Write(b); err != nil {
		p.t.Fatal(err)
	}
}

// read reads one reply within ten seconds; a connection that ends first
// is (nil, err).
func (p *rawPeer) read() (*wire.TxnResp, error) {
	p.t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, buf, err := wire.ReadFrame(p.br, p.buf)
	if err != nil {
		return nil, err
	}
	p.buf = buf
	resp, err := wire.DecodeTxnResp(payload)
	if err != nil {
		p.t.Fatalf("decoding a reply: %v", err)
	}
	return &resp, nil
}

// readOK reads one reply and requires StatusOK.
func (p *rawPeer) readOK() *wire.TxnResp {
	p.t.Helper()
	resp, err := p.read()
	if err != nil {
		p.t.Fatalf("reading a reply: %v", err)
	}
	if resp.Status != wire.StatusOK {
		p.t.Fatalf("request %d: status %v %s", resp.ID, resp.Status, resp.Msg)
	}
	return resp
}

// readAll reads n replies and requires ids 1..n answered exactly once,
// calling each(resp) on every one.
func (p *rawPeer) readAll(n int, each func(*wire.TxnResp)) {
	p.t.Helper()
	seen := make([]bool, n+1)
	for got := 0; got < n; got++ {
		resp := p.readOK()
		if resp.ID < 1 || resp.ID > uint64(n) || seen[resp.ID] {
			p.t.Fatalf("reply %d of %d carries id %d (unknown or answered twice)", got, n, resp.ID)
		}
		seen[resp.ID] = true
		if each != nil {
			each(resp)
		}
	}
}

func acct(k int) string { return fmt.Sprintf("acct:%04d", k) }

func getAll(nKeys int) []wire.Op {
	ops := make([]wire.Op, nKeys)
	for k := range ops {
		ops[k] = wire.Op{Code: wire.OpGet, Key: acct(k)}
	}
	return ops
}

func transfer(i, nKeys int) []wire.Op {
	from, d := i%nKeys, uint64(i%7+1)
	return []wire.Op{
		{Code: wire.OpAdd, Key: acct(from), Delta: stmnet.Neg(d)},
		{Code: wire.OpAdd, Key: acct((from + 1 + i%(nKeys-1)) % nKeys), Delta: d},
	}
}

func sumWord0(res []wire.Result) (sum uint64) {
	for _, r := range res {
		if len(r.Vals) > 0 {
			sum += r.Vals[0]
		}
	}
	return sum
}

func syncRuntime(t *testing.T) *stm.Runtime {
	t.Helper()
	return syncRuntimeAt(t, t.TempDir())
}

// syncRuntimeAt recovers (or starts) a DurabilitySync runtime over dir.
func syncRuntimeAt(t *testing.T, dir string) *stm.Runtime {
	t.Helper()
	rt, err := stm.New(stm.Config{
		HeapWords: 1 << 20,
		WAL:       &stm.WALConfig{Dir: dir, Durability: stm.DurabilitySync},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestSyncHeldRepliesAreBounded: write batches on a Sync runtime run on
// the connection's reader like any other, their replies held until
// synced — at most 64 per connection, by one releaser goroutine. A peer
// pipelines 10 000 transfers; mid-flight the connection never holds more
// than the cap, the process never more than a constant number of
// goroutines, and every reply arrives.
func TestSyncHeldRepliesAreBounded(t *testing.T) {
	srv, addr, _ := startServer(t, server.Config{Runtime: syncRuntime(t)})
	defer srv.Close()
	p := dialRaw(t, addr)

	const (
		nKeys = 16
		n     = 10000
		chunk = 100 // frames per write
	)
	var create []wire.Op
	for k := 0; k < nKeys; k++ {
		create = append(create, wire.Op{Code: wire.OpAdd, Key: acct(k)})
	}
	p.write(reqFrame(t, 1, create...))
	p.readOK()

	frames := make([][]byte, 0, n/chunk)
	for i := 0; i < n; i += chunk {
		var out []byte
		for j := i; j < i+chunk; j++ {
			out = append(out, reqFrame(t, uint64(j+1), transfer(j, nKeys)...)...)
		}
		frames = append(frames, out)
	}

	base := runtime.NumGoroutine()
	go func() {
		for _, out := range frames {
			if _, err := p.nc.Write(out); err != nil {
				t.Errorf("pipelining: %v", err)
				return
			}
		}
	}()
	peak := 0
	p.readAll(n, func(resp *wire.TxnResp) {
		if resp.ID%8 == 0 {
			peak = max(peak, runtime.NumGoroutine())
		}
	})
	// The connection's reader and releaser are in the baseline; on top of
	// it, the pipelining goroutine above and a little slack for the
	// runtime's own.
	if limit := base + 1 + 4; peak > limit {
		t.Fatalf("goroutines mid-flight: %d (baseline %d), want at most %d", peak, base, limit)
	}
	// The server records its own peak: a sample taken from here can miss
	// every held reply when the releaser drains them first (one P).
	if held := srv.HeldPeak(); held == 0 || held > server.MaxHeld {
		t.Fatalf("most replies held at once: %d, want 1..%d", held, server.MaxHeld)
	}
	p.write(reqFrame(t, 1, getAll(nKeys)...))
	if sum := sumWord0(p.readOK().Results); sum != 0 {
		t.Fatalf("balance sum after %d transfers = %d, want 0", n, sum)
	}
}

// TestNeverReadingPeer: a peer that pipelines requests and never reads
// a reply blocks its own connection's reader in the flush, and nothing
// else: another connection keeps full service, the server holds one
// goroutine for it, and Close still returns within the write grace.
func TestNeverReadingPeer(t *testing.T) {
	neverReadingPeer(t, server.Config{}, 1, reqFrame(t, 1, getAll(256)...))
}

// TestNeverReadingPeerSync: the same on a Sync runtime, where the stuck
// connection also holds replies and its releaser is the one blocked in
// the flush (or behind the reader that is): two goroutines, stalled
// alone, while the other connection's transfers keep being synced.
func TestNeverReadingPeerSync(t *testing.T) {
	frame := append(reqFrame(t, 1, transfer(1, 256)...), reqFrame(t, 2, getAll(256)...)...)
	neverReadingPeer(t, server.Config{Runtime: syncRuntime(t)}, 2, frame)
}

// neverReadingPeer writes frame (requests over acct(0..255) with a large
// reply) until the server stops reading, and checks that the stuck
// connection costs connGoroutines goroutines and nobody else's service.
func neverReadingPeer(t *testing.T, scfg server.Config, connGoroutines int, frame []byte) {
	srv, addr, serveDone := startServer(t, scfg)
	defer srv.Close()

	const nKeys = 256
	good, err := stmnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	pre := stmnet.NewBatch()
	for k := 0; k < nKeys; k++ {
		pre.Put(acct(k), 1000)
	}
	if _, err := good.Do(pre); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	// Each request asks for a 17 KB reply. Once the replies fill the
	// path back, the server stops reading this connection, the path
	// forward fills too, and a write here times out.
	stuck := dialRaw(t, addr)
	stuck.nc.(*net.TCPConn).SetReadBuffer(4 << 10)
	for wrote := 0; ; wrote++ {
		if wrote == 100000 {
			t.Fatal("the server read 100 000 requests from a peer that never read a reply")
		}
		stuck.nc.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
		if _, err := stuck.nc.Write(frame); err != nil {
			break
		}
	}

	served := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			ops := transfer(i, nKeys)
			if _, err := good.Do(stmnet.NewBatch().Add(ops[0].Key, ops[0].Delta).Add(ops[1].Key, ops[1].Delta)); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("the other connection: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the other connection stalled behind the stuck peer")
	}
	// The stuck connection's own, and the goroutine just above while it
	// exits.
	if n := runtime.NumGoroutine(); n > base+connGoroutines+1 {
		t.Fatalf("goroutines with a stuck peer attached: %d, baseline %d", n, base)
	}

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took > server.CloseWriteGrace+2*time.Second {
		t.Fatalf("Close took %v with a stuck peer attached, write grace is %v", took, server.CloseWriteGrace)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
}

// TestBenchmarkShapedLoopback drives the server the way stmbench's
// kv-mixed does — 2 connections, 4 Do callers each, 8-key snapshot GET
// batches beside two-key ADD transfers over preloaded keys — and checks
// every reply the way stmbench counts a failure: no error, one result
// per op, every GET found with a whole value. The GET batches cover
// every key, so each must also see the conserved balance sum.
func TestBenchmarkShapedLoopback(t *testing.T) {
	srv, addr, _ := startServer(t, server.Config{})
	defer srv.Close()

	const (
		nKeys   = 8
		arity   = 8
		initial = uint64(1 << 20)
		perG    = 500
	)
	clients := make([]*stmnet.Client, 2)
	for i := range clients {
		c, err := stmnet.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	pre := stmnet.NewBatch()
	for k := 0; k < nKeys; k++ {
		pre.Put(acct(k), initial)
	}
	if _, err := clients[0].Do(pre); err != nil {
		t.Fatal(err)
	}

	readAll := func(c *stmnet.Client) error {
		b := stmnet.NewBatch()
		for _, op := range getAll(nKeys) {
			b.Get(op.Key)
		}
		res, err := c.Do(b)
		if err != nil {
			return err
		}
		if len(res) != nKeys {
			return fmt.Errorf("%d results for %d GETs", len(res), nKeys)
		}
		var sum uint64
		for k, r := range res {
			if !r.Flag || len(r.Vals) != arity {
				return fmt.Errorf("GET %d: found=%v with %d words, want a %d-word value", k, r.Flag, len(r.Vals), arity)
			}
			sum += r.Val()
		}
		if sum != nKeys*initial {
			return fmt.Errorf("balance sum %d in one GET batch, want %d", sum, nKeys*initial)
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < 4*len(clients); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for i := 0; i < perG; i++ {
				if (i+w)%2 == 0 {
					if err := readAll(c); err != nil {
						t.Errorf("caller %d request %d: %v", w, i, err)
						return
					}
					continue
				}
				ops := transfer(i*7+w, nKeys)
				res, err := c.Do(stmnet.NewBatch().Add(ops[0].Key, ops[0].Delta).Add(ops[1].Key, ops[1].Delta))
				if err != nil || len(res) != 2 {
					t.Errorf("caller %d request %d: transfer: %d results, %v", w, i, len(res), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := readAll(clients[1]); err != nil {
		t.Fatalf("at the end: %v", err)
	}
	st := srv.Stats()
	if st.SnapshotTxns == 0 {
		t.Fatal("no batch took the snapshot path")
	}
	if st.SnapshotAborts != 0 {
		t.Fatalf("snapshot read batches aborted %d times, want 0", st.SnapshotAborts)
	}
	if st.BadRequests != 0 {
		t.Fatalf("BadRequests = %d", st.BadRequests)
	}
}

// TestPipelinedRepliesKeepTheirOwnData: the reader runs every inline
// batch in one scratch and reads every frame into one buffer, so a
// reply must be encoded before the next request reuses the scratch, and
// a key that reaches the intern table must not alias the read buffer.
func TestPipelinedRepliesKeepTheirOwnData(t *testing.T) {
	srv, addr, _ := startServer(t, server.Config{})
	defer srv.Close()
	p := dialRaw(t, addr)

	const (
		nKeys   = 1000
		arity   = 8
		perPut  = 10
		perGet  = 8
		nGetReq = 64
	)
	word := func(k, w int) uint64 { return uint64(k)<<8 | uint64(w) }
	checkGet := func(resp *wire.TxnResp, first int) {
		t.Helper()
		for i, r := range resp.Results {
			if !r.Flag || len(r.Vals) != arity {
				t.Fatalf("request %d: key %s: found=%v with %d words", resp.ID, acct(first+i), r.Flag, len(r.Vals))
			}
			for w, v := range r.Vals {
				if v != word(first+i, w) {
					t.Fatalf("request %d: key %s word %d = %#x, want %#x (another request's data)", resp.ID, acct(first+i), w, v, word(first+i, w))
				}
			}
		}
	}
	// getFrames pipelines n GET batches of per keys each: request id
	// reads keys (id-1)*per onward.
	getFrames := func(per, n int) (out []byte) {
		for id := 1; id <= n; id++ {
			out = append(out, reqFrame(t, uint64(id), getAll(id * per)[(id-1)*per:]...)...)
		}
		return out
	}

	// Create the keys: 100 pipelined frames of 10 PUTs, one write.
	var out []byte
	for first := 0; first < nKeys; first += perPut {
		ops := make([]wire.Op, perPut)
		for i := range ops {
			vals := make([]uint64, arity)
			for w := range vals {
				vals[w] = word(first+i, w)
			}
			ops[i] = wire.Op{Code: wire.OpPut, Key: acct(first + i), Vals: vals}
		}
		out = append(out, reqFrame(t, uint64(first/perPut+1), ops...)...)
	}
	p.write(out)
	p.readAll(nKeys/perPut, nil)

	// 64 GET batches over distinct keys in one write: one read burst on
	// the server, each reply built in the same scratch.
	p.write(getFrames(perGet, nGetReq))
	p.readAll(nGetReq, func(resp *wire.TxnResp) { checkGet(resp, int(resp.ID-1)*perGet) })

	// Every created key is still found under its own name.
	p.write(getFrames(50, nKeys/50))
	p.readAll(nKeys/50, func(resp *wire.TxnResp) { checkGet(resp, int(resp.ID-1)*50) })
	if keys := srv.Stats().Keys; keys != nKeys {
		t.Fatalf("%d keys interned, want %d", keys, nKeys)
	}
}

// TestFlushBeforeWaitingOnAHalfFrame: the reader skips the flush only
// while a WHOLE next frame is buffered. With a request and half of the
// next one in its buffer it must answer the first before it waits.
func TestFlushBeforeWaitingOnAHalfFrame(t *testing.T) {
	srv, addr, _ := startServer(t, server.Config{})
	defer srv.Close()
	p := dialRaw(t, addr)

	first := reqFrame(t, 1, wire.Op{Code: wire.OpAdd, Key: "k", Delta: 5})
	second := reqFrame(t, 2, wire.Op{Code: wire.OpGet, Key: "k"})
	half := len(second) / 2
	p.write(append(append([]byte(nil), first...), second[:half]...))
	if resp := p.readOK(); resp.ID != 1 {
		t.Fatalf("first reply carries id %d", resp.ID)
	}
	p.write(second[half:])
	if resp := p.readOK(); resp.ID != 2 || resp.Results[0].Vals[0] != 5 {
		t.Fatalf("second reply: id %d, results %+v", resp.ID, resp.Results)
	}
}

// TestSyncMixedConnection: on a Sync runtime one connection carries
// GET batches run inline by the reader beside transfers dispatched to
// their own goroutines, all writing to one buffer. Every reply frame
// arrives intact, every id is answered exactly once, and every GET
// batch sees the conserved sum.
func TestSyncMixedConnection(t *testing.T) {
	srv, addr, _ := startServer(t, server.Config{Runtime: syncRuntime(t)})
	defer srv.Close()
	p := dialRaw(t, addr)

	const (
		nKeys = 8
		n     = 3000
	)
	var create []wire.Op
	for k := 0; k < nKeys; k++ {
		create = append(create, wire.Op{Code: wire.OpPut, Key: acct(k), Vals: []uint64{1000}})
	}
	p.write(reqFrame(t, 1, create...))
	p.readOK()

	isGet := func(id uint64) bool { return id%3 == 0 }
	var out []byte
	for id := uint64(1); id <= n; id++ {
		if isGet(id) {
			out = append(out, reqFrame(t, id, getAll(nKeys)...)...)
		} else {
			out = append(out, reqFrame(t, id, transfer(int(id), nKeys)...)...)
		}
	}
	go func() {
		if _, err := p.nc.Write(out); err != nil {
			t.Errorf("pipelining: %v", err)
		}
	}()
	p.readAll(n, func(resp *wire.TxnResp) {
		want := 2
		if isGet(resp.ID) {
			want = nKeys
			if sum := sumWord0(resp.Results); sum != nKeys*1000 {
				t.Fatalf("request %d: balance sum %d, want %d", resp.ID, sum, nKeys*1000)
			}
		}
		if len(resp.Results) != want {
			t.Fatalf("request %d: %d results, want %d", resp.ID, len(resp.Results), want)
		}
	})
}

// TestAckImpliesDurable pins the Sync contract at the server's edge: a
// peer pipelines ADD-1 requests, each to a key of its own, and the log
// dies mid-stream. Every request is answered exactly once; after
// recovering the directory, every key whose reply was StatusOK reads 1,
// and every other reply is StatusNotDurable naming a sequence the
// recovered log does not reach (or none: the log refused the record).
func TestAckImpliesDurable(t *testing.T) {
	dir := t.TempDir()
	rt := syncRuntimeAt(t, dir)
	srv, addr, _ := startServer(t, server.Config{Runtime: rt})
	defer srv.Close()
	p := dialRaw(t, addr)

	const (
		n     = 4000
		chunk = 50
	)
	key := func(id uint64) string { return fmt.Sprintf("once:%05d", id) }
	crashed := make(chan struct{})
	go func() {
		for i := 1; i <= n; i += chunk {
			if i > n*3/4 {
				<-crashed // the last quarter finds the log dead
			}
			var out []byte
			for id := uint64(i); id < uint64(i+chunk); id++ {
				out = append(out, reqFrame(t, id, wire.Op{Code: wire.OpAdd, Key: key(id), Delta: 1})...)
			}
			if _, err := p.nc.Write(out); err != nil {
				t.Errorf("pipelining: %v", err)
				return
			}
		}
	}()

	status := make([]wire.Status, n+1)
	seq := make([]uint64, n+1)
	answered := make([]bool, n+1)
	acked := 0
	for got := 0; got < n; got++ {
		if got == n/4 {
			rt.WAL().Abandon() // the crash
			close(crashed)
		}
		resp, err := p.read()
		if err != nil {
			t.Fatalf("reply %d of %d: %v", got, n, err)
		}
		if resp.ID < 1 || resp.ID > n || answered[resp.ID] {
			t.Fatalf("reply %d carries id %d (unknown or answered twice)", got, resp.ID)
		}
		answered[resp.ID], status[resp.ID], seq[resp.ID] = true, resp.Status, resp.Seq
		switch resp.Status {
		case wire.StatusOK:
			acked++
			if len(resp.Results) != 1 || resp.Results[0].Val() != 1 {
				t.Fatalf("request %d: results %+v, want one value 1", resp.ID, resp.Results)
			}
		case wire.StatusNotDurable:
		default:
			t.Fatalf("request %d: status %v %s", resp.ID, resp.Status, resp.Msg)
		}
	}
	if acked < n/4 || acked > n*3/4 {
		t.Fatalf("%d of %d requests acked, with the log dead for the third and alive for the first quarter", acked, n)
	}
	addrs := make([]stm.Addr, n+1)
	for id := uint64(1); id <= n; id++ {
		addrs[id], _ = srv.Space().Lookup(key(id))
	}
	srv.Close()

	rec := syncRuntimeAt(t, dir)
	defer rec.Close()
	last := rec.Recovery().LastSeq
	err := rec.Run(func(tx *stm.Tx) error {
		for id := uint64(1); id <= n; id++ {
			switch {
			case status[id] == wire.StatusOK:
				if v := tx.Load(addrs[id]); v != 1 {
					return fmt.Errorf("request %d was acked and its key reads %d after recovery", id, v)
				}
			case seq[id] != 0 && seq[id] <= last:
				return fmt.Errorf("request %d: NOT_DURABLE names seq %d, the recovered log reaches %d", id, seq[id], last)
			}
		}
		return nil
	}, stm.ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d acked, %d not durable, recovered through seq %d", acked, n-acked, last)
}

// TestGracefulCloseAnswersHeldReplies: Close with replies held waits out
// the syncs they need — the log is closed only after the connections —
// so every request the server executed is answered StatusOK.
func TestGracefulCloseAnswersHeldReplies(t *testing.T) {
	srv, addr, _ := startServer(t, server.Config{Runtime: syncRuntime(t)})
	defer srv.Close()
	p := dialRaw(t, addr)

	const (
		nKeys = 16
		burst = 200 // requests and replies both fit the socket buffers
	)
	var create []wire.Op
	for k := 0; k < nKeys; k++ {
		create = append(create, wire.Op{Code: wire.OpAdd, Key: acct(k)})
	}
	p.write(reqFrame(t, 1, create...))
	p.readOK()

	// Bursts, until one is caught executed to the last request with the
	// last replies still waiting for their sync.
	sent, replies := 0, 0
	for round := 0; srv.HeldReplies() == 0; round++ {
		if round == 200 {
			t.Fatal("never caught the server with replies held")
		}
		for ; replies < sent; replies++ {
			p.readOK()
		}
		executed := srv.Stats().Txns + burst
		var out []byte
		for i := 0; i < burst; i++ {
			sent++
			out = append(out, reqFrame(t, uint64(sent), transfer(sent, nKeys)...)...)
		}
		p.write(out)
		for srv.Stats().Txns < executed {
			runtime.Gosched()
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for {
		resp, err := p.read()
		if err != nil {
			break // the server hung up after its last reply
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("request %d: status %v %s", resp.ID, resp.Status, resp.Msg)
		}
		replies++
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if replies != sent {
		t.Fatalf("%d replies for the %d requests the server executed", replies, sent)
	}
}

// TestKeyCreationSharesSyncs: creating a key commits without waiting for
// its own sync (KeySpace.Intern used to park for one, holding the intern
// table's write lock): 1 000 never-seen keys, ADDed ten to a request over
// one pipelined connection, cost at most a sync per request, and GETs on
// a second connection are answered all the while.
func TestKeyCreationSharesSyncs(t *testing.T) {
	// A group-commit interval the test never reaches: the log syncs only
	// when somebody waits.
	rt, err := stm.New(stm.Config{
		HeapWords: 1 << 20,
		WAL:       &stm.WALConfig{Dir: t.TempDir(), Durability: stm.DurabilitySync, GroupCommitInterval: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, _ := startServer(t, server.Config{Runtime: rt})
	defer srv.Close()
	p := dialRaw(t, addr)
	p.write(reqFrame(t, 1, wire.Op{Code: wire.OpPut, Key: "seen", Vals: []uint64{7}}))
	p.readOK()

	reader, err := stmnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	stop, gets := make(chan struct{}), make(chan int, 1)
	go func() {
		n := 0
		defer func() { gets <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := reader.Do(stmnet.NewBatch().Get("seen"))
			if err != nil || !res[0].Flag || res[0].Val() != 7 {
				t.Errorf("GET beside the key creations: %+v, %v", res, err)
				return
			}
			n++
		}
	}()

	const (
		requests = 100
		perReq   = 10
	)
	var out []byte
	for id := uint64(1); id <= requests; id++ {
		ops := make([]wire.Op, perReq)
		for k := range ops {
			ops[k] = wire.Op{Code: wire.OpAdd, Key: fmt.Sprintf("new:%03d.%d", id, k), Delta: id}
		}
		out = append(out, reqFrame(t, id, ops...)...)
	}
	st, _ := rt.WALStats()
	before := st.Fsyncs
	go func() {
		if _, err := p.nc.Write(out); err != nil {
			t.Errorf("pipelining: %v", err)
		}
	}()
	p.readAll(requests, func(resp *wire.TxnResp) {
		for _, r := range resp.Results {
			if r.Val() != resp.ID {
				t.Fatalf("request %d: results %+v", resp.ID, resp.Results)
			}
		}
	})
	st, _ = rt.WALStats()
	close(stop)
	served := <-gets
	// Every sync was asked for by a connection with a reply to release,
	// so there is at most one per request however slowly they run —
	// parking for each creation alone took a thousand.
	if syncs := st.Fsyncs - before; syncs > requests {
		t.Fatalf("%d syncs for %d keys created by %d requests", syncs, requests*perReq, requests)
	} else {
		t.Logf("%d syncs for %d keys created by %d requests, %d GETs served beside them", syncs, requests*perReq, requests, served)
	}
	if served == 0 {
		t.Fatal("no GET was answered while the keys were created")
	}
}
