package stmnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/stm"
)

// peer is the far end of a client's connection, scripted by the test:
// it decides which bytes come back and when.
type peer struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

// tapConn counts the client's writes and can be told to fail them.
type tapConn struct {
	net.Conn
	writes    atomic.Int64
	failWrite atomic.Pointer[error]
}

func (c *tapConn) Write(b []byte) (int, error) {
	if err := c.failWrite.Load(); err != nil {
		return 0, *err
	}
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeClient connects a client to a scripted peer over net.Pipe, whose
// writes complete only when the other end reads: a Do that parked before
// writing would never be answered.
func pipeClient(t *testing.T) (*Client, *tapConn, *peer) {
	t.Helper()
	near, far := net.Pipe()
	tap := &tapConn{Conn: near}
	c := NewClient(tap)
	t.Cleanup(func() {
		c.Close()
		far.Close()
	})
	return c, tap, &peer{t: t, nc: far, br: bufio.NewReader(far)}
}

func (p *peer) readReq() *wire.TxnReq {
	p.t.Helper()
	payload, _, err := wire.ReadFrame(p.br, nil)
	if err != nil {
		p.t.Fatalf("peer: reading a request: %v", err)
	}
	req, err := wire.DecodeTxnReq(payload)
	if err != nil {
		p.t.Fatalf("peer: decoding a request: %v", err)
	}
	return req
}

func (p *peer) write(b []byte) {
	p.t.Helper()
	if _, err := p.nc.Write(b); err != nil {
		p.t.Fatalf("peer: write: %v", err)
	}
}

func okFrame(id uint64, results ...wire.Result) []byte {
	return wire.AppendFrame(nil, wire.AppendTxnResp(nil, &wire.TxnResp{ID: id, Results: results}))
}

// keyWord is what the echoing peers answer for a key, so a reply shows
// which request it belongs to.
func keyWord(key string) (h uint64) {
	for i := 0; i < len(key); i++ {
		h = h*131 + uint64(key[i])
	}
	return h
}

// echo answers every request with keyWord of each of its keys until the
// connection ends.
func (p *peer) echo() {
	for {
		payload, _, err := wire.ReadFrame(p.br, nil)
		if err != nil {
			return
		}
		req, err := wire.DecodeTxnReq(payload)
		if err != nil {
			p.t.Errorf("peer: decoding a request: %v", err)
			return
		}
		res := make([]wire.Result, len(req.Ops))
		for i, op := range req.Ops {
			res[i] = wire.Result{Flag: true, Vals: []uint64{keyWord(op.Key)}}
		}
		if _, err := p.nc.Write(okFrame(req.ID, res...)); err != nil {
			return
		}
	}
}

// checkEcho requires res to be the echo of a GET batch over keys.
func checkEcho(res []Result, keys ...string) error {
	if len(res) != len(keys) {
		return fmt.Errorf("%d results for %d keys", len(res), len(keys))
	}
	for i, k := range keys {
		if res[i].Val() != keyWord(k) {
			return fmt.Errorf("result %d is not key %q's: someone else's reply", i, k)
		}
	}
	return nil
}

// within fails the test if f has not returned after ten seconds.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still waiting after 10 s", what)
	}
}

// TestRepliesMatchedByID: replies that come back in the reverse of
// request order reach their own callers.
func TestRepliesMatchedByID(t *testing.T) {
	c, _, p := pipeClient(t)
	const n = 5
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		go func() {
			key := fmt.Sprintf("k%d", g)
			res, err := c.Do(NewBatch().Get(key))
			if err == nil {
				err = checkEcho(res, key)
			}
			errs <- err
		}()
	}
	reqs := make([]*wire.TxnReq, n)
	for i := range reqs {
		reqs[i] = p.readReq()
	}
	for i := n - 1; i >= 0; i-- {
		p.write(okFrame(reqs[i].ID, wire.Result{Flag: true, Vals: []uint64{keyWord(reqs[i].Ops[0].Key)}}))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// goDo runs one Do beside the test's goroutine, which scripts the peer.
func goDo(c *Client, b *Batch) <-chan error {
	errs := make(chan error, 1)
	go func() {
		_, err := c.Do(b)
		errs <- err
	}()
	return errs
}

// TestWrongResultCount: a reply with the wrong number of results fails
// its own call and leaves the connection usable.
func TestWrongResultCount(t *testing.T) {
	c, _, p := pipeClient(t)
	errs := goDo(c, NewBatch().Get("a").Get("b"))
	p.write(okFrame(p.readReq().ID, wire.Result{Flag: true}))
	if err := <-errs; err == nil || !strings.Contains(err.Error(), "1 results for 2 ops") {
		t.Fatalf("Do = %v, want a result-count error", err)
	}
	go p.echo()
	res, err := c.Do(NewBatch().Get("a").Get("b"))
	if err == nil {
		err = checkEcho(res, "a", "b")
	}
	if err != nil {
		t.Fatalf("Do after a miscounted reply: %v", err)
	}
}

// TestUnknownIDBreaksConnection: a reply nobody asked for is a protocol
// error; the waiting call and every later one get the same sticky error.
func TestUnknownIDBreaksConnection(t *testing.T) {
	c, _, p := pipeClient(t)
	errs := goDo(c, NewBatch().Get("a"))
	p.write(okFrame(p.readReq().ID+1000, wire.Result{Flag: true}))
	err := <-errs
	if err == nil || !strings.Contains(err.Error(), "unknown request id") {
		t.Fatalf("Do = %v, want an unknown-id error", err)
	}
	if _, again := c.Do(NewBatch().Get("a")); again != err {
		t.Fatalf("later Do = %v, want the sticky %v", again, err)
	}
}

// TestConnectionDiesMidFrame: half a reply and then EOF is
// io.ErrUnexpectedEOF, not a clean close.
func TestConnectionDiesMidFrame(t *testing.T) {
	c, _, p := pipeClient(t)
	errs := goDo(c, NewBatch().Get("a"))
	frame := okFrame(p.readReq().ID, wire.Result{Flag: true, Vals: []uint64{1, 2, 3}})
	p.write(frame[:len(frame)-5])
	p.nc.Close()
	if err := <-errs; !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Do = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestCloseDuringDo: Close fails the calls in flight, and later ones,
// with ErrClientClosed.
func TestCloseDuringDo(t *testing.T) {
	c, _, p := pipeClient(t)
	errs := goDo(c, NewBatch().Get("a"))
	p.readReq() // the call is parked: its request arrived and gets no answer
	within(t, "Close", func() { c.Close() })
	if err := <-errs; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("in-flight Do = %v, want ErrClientClosed", err)
	}
	if _, err := c.Do(NewBatch().Get("a")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Do after Close = %v, want ErrClientClosed", err)
	}
}

// TestLoneCallerFlushesAtOnce: with one call in flight every Do is
// exactly one write, issued before the call parks (over net.Pipe a
// request that stayed in the buffer would never be answered).
func TestLoneCallerFlushesAtOnce(t *testing.T) {
	c, tap, p := pipeClient(t)
	go p.echo()
	const n = 200
	within(t, "sequential Do calls", func() {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", i)
			res, err := c.Do(NewBatch().Get(key))
			if err == nil {
				err = checkEcho(res, key)
			}
			if err != nil {
				t.Errorf("Do %d: %v", i, err)
				return
			}
		}
	})
	if w := tap.writes.Load(); w != n {
		t.Fatalf("%d writes for %d sequential Do calls, want one each", w, n)
	}
}

// TestSharedConnectionFlushes: callers sharing a connection never cost
// more than one write per request, and every request is answered with
// its own reply — on one processor too, where the yield before the flush
// is the only thing that lets another caller run.
func TestSharedConnectionFlushes(t *testing.T) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			c, tap, p := pipeClient(t)
			go p.echo()
			const callers, each = 8, 200
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						a, b := fmt.Sprintf("c%d:%d", g, i), fmt.Sprintf("c%d:%d'", g, i)
						res, err := c.Do(NewBatch().Get(a).Get(b))
						if err == nil {
							err = checkEcho(res, a, b)
						}
						if err != nil {
							t.Errorf("caller %d, Do %d: %v", g, i, err)
							return
						}
					}
				}()
			}
			within(t, "the callers", wg.Wait)
			if w := tap.writes.Load(); w > callers*each {
				t.Fatalf("%d writes for %d requests", w, callers*each)
			}
		})
	}
}

// TestFailedWriteIsTerminal: a request write that fails breaks the
// connection for everyone — the calls already parked on it get the
// writer's error at once instead of waiting for a reader that may never
// see the peer go.
func TestFailedWriteIsTerminal(t *testing.T) {
	c, tap, p := pipeClient(t)
	const parked = 3
	errs := make(chan error, parked)
	for g := 0; g < parked; g++ {
		go func() {
			_, err := c.Do(NewBatch().Get("parked"))
			errs <- err
		}()
	}
	for g := 0; g < parked; g++ {
		p.readReq() // arrived, never answered; the peer stays open
	}
	boom := errors.New("write: link down")
	tap.failWrite.Store(&boom)
	if _, err := c.Do(NewBatch().Get("writer")); err != boom {
		t.Fatalf("failing Do = %v, want %v", err, boom)
	}
	within(t, "the parked calls", func() {
		for g := 0; g < parked; g++ {
			if err := <-errs; err != boom {
				t.Errorf("parked Do = %v, want the writer's %v", err, boom)
			}
		}
	})
	if _, err := c.Do(NewBatch().Get("later")); err != boom {
		t.Fatalf("later Do = %v, want the sticky %v", err, boom)
	}
}

// TestEncodeErrorStaysLocal: a batch the codec refuses fails alone and
// leaves nothing behind in the write buffer or the pending table.
func TestEncodeErrorStaysLocal(t *testing.T) {
	c, tap, p := pipeClient(t)
	go p.echo()
	for _, b := range []*Batch{
		NewBatch().Get("ok").Get(strings.Repeat("k", wire.MaxKeyLen+1)),
		NewBatch().Get("ok").Put("empty"),
	} {
		if _, err := c.Do(b); err == nil {
			t.Fatal("Do accepted a batch the codec refuses")
		}
	}
	if n := c.bw.Buffered(); n != 0 {
		t.Fatalf("%d bytes of a refused batch left in the write buffer", n)
	}
	if n := len(c.pending); n != 0 {
		t.Fatalf("%d pending entries left by refused batches", n)
	}
	res, err := c.Do(NewBatch().Get("ok"))
	if err == nil {
		err = checkEcho(res, "ok")
	}
	if err != nil {
		t.Fatalf("Do after refused batches: %v", err)
	}
	if w := tap.writes.Load(); w != 1 {
		t.Fatalf("%d writes, want 1: refused batches must not reach the socket", w)
	}
}

// TestDoAllocations: a steady-state 8-GET Do allocates what the caller
// keeps — the batch, the results, their words — and nothing else. The
// peer on the other end of the loopback socket allocates nothing, so the
// count is the client's alone.
func TestDoAllocations(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	const gets, arity = 8, 8
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		results := make([]wire.Result, gets)
		for i := range results {
			results[i] = wire.Result{Flag: true, Vals: make([]uint64, arity)}
		}
		reply := wire.AppendTxnResp(nil, &wire.TxnResp{Results: results})
		br := bufio.NewReader(nc)
		var buf, frame []byte
		for {
			var payload []byte
			if payload, buf, err = wire.ReadFrame(br, buf); err != nil {
				return
			}
			copy(reply[1:9], payload[1:9]) // echo the request id
			frame = wire.AppendFrame(frame[:0], reply)
			if _, err := nc.Write(frame); err != nil {
				return
			}
		}
	}()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, gets)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct:%04d", i)
	}
	do := func() {
		b := NewBatch()
		for _, k := range keys {
			b.Get(k)
		}
		res, err := c.Do(b)
		if err != nil || len(res) != gets || len(res[gets-1].Vals) != arity {
			t.Fatalf("Do = %d results, %v", len(res), err)
		}
	}
	do() // warm the pooled waiter and the buffers
	// The spare covers the race detector, under which sync.Pool drops a
	// quarter of what is put back (3 without it, a mean of 4.0 with it).
	if got := testing.AllocsPerRun(200, do); got > 4 {
		t.Fatalf("%.1f allocations per 8-GET Do, want at most 4 (batch, results, words, one spare)", got)
	}
}

// killableListener remembers what it accepted so a test can cut every
// connection from the server's side, as a dying server would.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, nc)
		l.mu.Unlock()
	}
	return nc, err
}

func (l *killableListener) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, nc := range l.conns {
		nc.Close()
	}
	l.conns = nil
}

// mixCaller runs stmbench's kv-mixed shape — 8-key GET batches and
// two-key transfers, alternating — over keys only it touches, so every
// reply has exactly one right answer: word 0 is a balance this caller
// alone moves, word 1 the key's own number. It returns the error that
// stopped it, or nil after rounds requests.
func mixCaller(t *testing.T, c *Client, base uint64, rounds int, progress *atomic.Int64) error {
	const nKeys, initial = 8, uint64(1000)
	keys, bal := make([]string, nKeys), make([]uint64, nKeys)
	put := NewBatch()
	for k := range keys {
		keys[k], bal[k] = fmt.Sprintf("own:%d", base+uint64(k)), initial
		put.Put(keys[k], initial, base+uint64(k))
	}
	if _, err := c.Do(put); err != nil {
		return err
	}
	for n := 0; rounds == 0 || n < rounds; n++ {
		if n%2 == 0 {
			get := NewBatch()
			for _, k := range keys {
				get.Get(k)
			}
			out, err := c.Do(get)
			if err != nil {
				return err
			}
			for k, r := range out {
				if !r.Flag || len(r.Vals) < 2 || r.Vals[0] != bal[k] || r.Vals[1] != base+uint64(k) {
					t.Errorf("GET %s = %+v, want balance %d and number %d: not this request's reply", keys[k], r, bal[k], base+uint64(k))
					return nil
				}
			}
		} else {
			from, to, d := n%nKeys, (n+3)%nKeys, uint64(n%7+1)
			out, err := c.Do(NewBatch().Add(keys[from], Neg(d)).Add(keys[to], d))
			if err != nil {
				return err
			}
			bal[from] -= d
			bal[to] += d
			if out[0].Val() != bal[from] || out[1].Val() != bal[to] {
				t.Errorf("transfer %s→%s = %d, %d, want %d, %d: not this request's reply", keys[from], keys[to], out[0].Val(), out[1].Val(), bal[from], bal[to])
				return nil
			}
		}
		progress.Add(1)
	}
	return nil
}

// TestKilledServerFailsEveryCaller: 8 callers on each of 2 connections
// run the mixed workload, every reply checked against its own request,
// and the server's side of the connections is cut mid-traffic. Every
// caller returns its connection's one sticky error and none stays
// parked; the waiters they hand back to the pool carry no stale wake-up
// or error, so a fresh client reusing them still gets only its own
// replies.
func TestKilledServerFailsEveryCaller(t *testing.T) {
	srv, err := server.New(server.Config{Runtime: stm.MustNew(stm.Config{HeapWords: 1 << 20, SnapshotHistory: 1 << 12})})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &killableListener{Listener: inner}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	defer func() {
		if err := errors.Join(srv.Close(), <-served); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	}()

	const conns, callers = 2, 8
	var (
		wg       sync.WaitGroup
		progress atomic.Int64
		clients  [conns]*Client
		errs     [conns][callers]error
	)
	for ci := range clients {
		if clients[ci], err = Dial(inner.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer clients[ci].Close()
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[ci][g] = mixCaller(t, clients[ci], uint64(ci*callers+g)*100, 0, &progress)
			}()
		}
	}
	for progress.Load() < 50*conns*callers { // traffic is flowing on every connection
		if t.Failed() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	lis.kill()
	within(t, "callers of a killed server", wg.Wait)
	for ci, c := range clients {
		c.pmu.Lock()
		sticky := c.err
		c.pmu.Unlock()
		if sticky == nil {
			t.Fatalf("connection %d has no sticky error after the kill", ci)
		}
		for g, err := range errs[ci] {
			if err != sticky {
				t.Errorf("connection %d caller %d returned %v, want the sticky %v", ci, g, err, sticky)
			}
		}
	}

	// Whatever the failed calls put back into the pool must be clean.
	var pooled []*waiter
	for i := 0; i < 4*conns*callers; i++ {
		w := waiters.Get().(*waiter)
		if len(w.wake) != 0 || w.err != nil {
			t.Fatalf("pooled waiter carries a stale wake-up (%d) or error (%v)", len(w.wake), w.err)
		}
		pooled = append(pooled, w)
	}
	for _, w := range pooled {
		waiters.Put(w)
	}
	fresh, err := Dial(inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	wg = sync.WaitGroup{}
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := mixCaller(t, fresh, uint64(1000+g)*100, 200, &progress); err != nil {
				t.Errorf("fresh client, caller %d: %v", g, err)
			}
		}()
	}
	within(t, "callers of the fresh client", wg.Wait)
}
