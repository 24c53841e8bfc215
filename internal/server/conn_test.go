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

// readOK reads one reply within ten seconds and requires StatusOK.
func (p *rawPeer) readOK() *wire.TxnResp {
	p.t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, buf, err := wire.ReadFrame(p.br, p.buf)
	if err != nil {
		p.t.Fatalf("reading a reply: %v", err)
	}
	p.buf = buf
	resp, err := wire.DecodeTxnResp(payload)
	if err != nil {
		p.t.Fatalf("decoding a reply: %v", err)
	}
	if resp.Status != wire.StatusOK {
		p.t.Fatalf("request %d: status %v %s", resp.ID, resp.Status, resp.Msg)
	}
	return &resp
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
	rt, err := stm.New(stm.Config{
		HeapWords: 1 << 20,
		WAL:       &stm.WALConfig{Dir: t.TempDir(), Durability: stm.DurabilitySync},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestSyncDispatchIsBounded: write batches on a Sync runtime are the
// only requests that get a goroutine, and a connection has at most 64 of
// them. A peer pipelines 10 000 transfers; mid-flight the process never
// holds more goroutines than that cap allows, and every reply arrives.
func TestSyncDispatchIsBounded(t *testing.T) {
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
		if resp.ID%32 == 0 {
			peak = max(peak, runtime.NumGoroutine())
		}
	})
	// The pipelining goroutine above, 64 dispatched batches, and a little
	// slack for the runtime's own.
	if limit := base + 1 + 64 + 4; peak > limit {
		t.Fatalf("goroutines mid-flight: %d (baseline %d), want at most %d", peak, base, limit)
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
	srv, addr, serveDone := startServer(t, server.Config{})
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
	frame := reqFrame(t, 1, getAll(nKeys)...)
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
	// The stuck connection's reader, and the goroutine just above while
	// it exits.
	if n := runtime.NumGoroutine(); n > base+2 {
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
