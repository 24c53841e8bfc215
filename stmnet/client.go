// Package stmnet is the client for the network-facing transactional
// store (internal/server, cmd/stmd): batched multi-key transactions
// over one pipelined TCP connection.
//
//	c, _ := stmnet.Dial("localhost:7437")
//	defer c.Close()
//
//	// One atomic transfer: both ADDs commit or neither does.
//	res, err := c.Do(stmnet.NewBatch().
//		Add("acct:alice", stmnet.Neg(10)).
//		Add("acct:bob", 10))
//
//	// An all-GET batch reads a consistent snapshot, abort-free.
//	res, err = c.Do(stmnet.NewBatch().Get("acct:alice").Get("acct:bob"))
//
// A Client is safe for concurrent use: every Do is tagged with a fresh
// request id, written atomically, and matched to its response by id, so
// any number of goroutines pipeline their batches over the one
// connection, whatever order the server answers them in.
//
// When a request reaches the socket follows from what the client sees,
// not from a setting. A Do that is the only call in flight on its
// connection writes and flushes at once: a synchronous caller pays one
// write per request and no added delay. A Do that finds other calls in
// flight appends its frame to the connection's write buffer, yields the
// processor once, and then flushes whatever is still buffered — callers
// that one burst of replies made runnable together leave in one write,
// which the server reads in one read and answers in one write. No frame
// waits in the buffer longer than that one scheduler turn of its own
// caller.
//
// What Do returns is the caller's: the []Result and every Vals in it are
// freshly allocated per call (one array of results, one of words, each
// Vals capped at its own length) and never reused by the client. A
// steady-state Do allocates nothing else.
//
// Failures are typed end to end: a batch that exhausted the server's
// retry budget returns a *stm.MaxAttemptsError (attempt count and final
// abort cause) and a commit whose redo record never became durable
// returns a *stm.NotDurableError — the same concrete types, matching
// the same errors.Is sentinels (stm.ErrMaxAttempts, stm.ErrNotDurable),
// that an embedded stm.Runtime.Run returns in-process.
package stmnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Client is one pipelined connection to a store server.
type Client struct {
	nc net.Conn

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer
	enc []byte // reusable encode buffer, guarded by wmu

	pmu     sync.Mutex
	pending map[uint64]*waiter // id → the call parked on it
	err     error              // sticky connection error, guarded by pmu
	nextID  atomic.Uint64

	readerDone chan struct{}
}

// waiter is where one call parks for its reply. Registering it in
// pending buys exactly one token on wake — sent by whoever takes the
// entry out again (the reader with the reply in buf, or failAll with
// err set) — and the registrant always receives it before the waiter
// goes back to the pool, so a pooled waiter is never signalled.
type waiter struct {
	wake chan struct{} // capacity 1
	buf  []byte        // the reply payload; swapped with the reader's frame buffer, so it keeps its capacity
	err  error
}

var waiters = sync.Pool{New: func() any { return &waiter{wake: make(chan struct{}, 1)} }}

// Dial connects to a store server at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (any net.Conn, so tests can
// run over net.Pipe or an in-process listener).
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:         nc,
		bw:         bufio.NewWriterSize(nc, 64<<10),
		pending:    make(map[uint64]*waiter),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down. In-flight and later Do calls fail
// with ErrClientClosed (or the connection's earlier sticky error).
func (c *Client) Close() error {
	err := c.failAll(ErrClientClosed)
	<-c.readerDone
	return err
}

// readLoop routes response frames to their waiting callers by id.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	for {
		payload, _, err := wire.ReadFrame(br, buf)
		if err != nil {
			if err == io.EOF {
				err = ErrClientClosed
			}
			c.failAll(err)
			return
		}
		switch wire.Kind(payload) {
		case wire.KindTxnResp, wire.KindStatsResp:
			// Peek the id without a full decode; the waiter decodes.
			if len(payload) < 9 {
				c.failAll(fmt.Errorf("stmnet: short response payload"))
				return
			}
		default:
			c.failAll(fmt.Errorf("stmnet: unexpected message kind %d", wire.Kind(payload)))
			return
		}
		id := binary.LittleEndian.Uint64(payload[1:9])
		c.pmu.Lock()
		w, ok := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if !ok {
			c.failAll(fmt.Errorf("stmnet: response for unknown request id %d", id))
			return
		}
		// The waiter takes this frame's buffer and the next frame is read
		// into the one its previous reply came in.
		w.buf, buf = payload, w.buf
		w.wake <- struct{}{}
	}
}

// failAll makes err sticky unless an earlier error already is, fails
// every pending call with the sticky error and closes the socket.
func (c *Client) failAll(err error) error {
	c.pmu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	pend := c.pending
	c.pending = make(map[uint64]*waiter)
	c.pmu.Unlock()
	for _, w := range pend {
		w.err = err
		w.wake <- struct{}{}
	}
	return c.nc.Close()
}

// roundTrip sends one request — req, or a StatsReq when req is nil —
// under id and parks until its reply is in the returned waiter's buf.
// The caller hands the waiter back to the pool once it has decoded.
func (c *Client) roundTrip(id uint64, req *wire.TxnReq) (*waiter, error) {
	c.wmu.Lock()
	var err error
	if req != nil {
		// A batch that does not encode fails alone: nothing has reached
		// the write buffer or the pending table yet.
		if c.enc, err = wire.AppendTxnReq(c.enc[:0], req); err != nil {
			c.wmu.Unlock()
			return nil, err
		}
	} else {
		c.enc = wire.AppendStatsReq(c.enc[:0], &wire.StatsReq{ID: id})
	}
	w := waiters.Get().(*waiter)
	c.pmu.Lock()
	if err = c.err; err != nil {
		c.pmu.Unlock()
		c.wmu.Unlock()
		waiters.Put(w)
		return nil, err
	}
	c.pending[id] = w
	shared := len(c.pending) > 1
	c.pmu.Unlock()
	_, err = c.bw.Write(wire.AppendFrame(c.bw.AvailableBuffer(), c.enc))
	if err == nil && !shared {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err == nil && shared {
		// Other calls are in flight, so their callers are likely runnable
		// right now (one reply burst wakes them together): give them one
		// scheduler turn to append their frames, then flush what nobody
		// else has flushed yet.
		runtime.Gosched()
		c.wmu.Lock()
		err = c.bw.Flush()
		c.wmu.Unlock()
	}
	if err != nil {
		// A failed write is terminal for the connection. Our entry is
		// failed by this call or by whoever took it first; either way the
		// token arrives below.
		c.failAll(err)
	}
	<-w.wake
	if err = w.err; err != nil {
		w.err = nil
		waiters.Put(w)
		return nil, err
	}
	return w, nil
}

// Do executes one batch as a single atomic transaction on the server
// and returns one Result per op, in op order; the results and their
// Vals belong to the caller. Concurrent Do calls pipeline over the
// connection. The returned error is nil only when the batch committed
// (and, under DurabilitySync, its redo record is durable); see the
// package comment for the typed failure modes.
func (c *Client) Do(b *Batch) ([]Result, error) {
	if len(b.ops) == 0 {
		return nil, fmt.Errorf("stmnet: empty batch")
	}
	id := c.nextID.Add(1)
	w, err := c.roundTrip(id, &wire.TxnReq{ID: id, Flags: b.flags, Ops: b.ops})
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeTxnResp(w.buf)
	waiters.Put(w)
	if err != nil {
		return nil, err
	}
	if resp.ID != id {
		return nil, fmt.Errorf("stmnet: response id %d for request %d", resp.ID, id)
	}
	if err := respError(&resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(b.ops) {
		return nil, fmt.Errorf("stmnet: %d results for %d ops", len(resp.Results), len(b.ops))
	}
	return resp.Results, nil
}

// Stats fetches the server's statistics snapshot: its own counters plus
// the embedded runtime's partition statistics, commit-latency histogram,
// pool counters and (when durable) redo-log counters.
func (c *Client) Stats() (*wire.StatsPayload, error) {
	w, err := c.roundTrip(c.nextID.Add(1), nil)
	if err != nil {
		return nil, err
	}
	defer waiters.Put(w) // body aliases w.buf until it is unmarshaled
	resp, body, err := wire.DecodeStatsResp(w.buf)
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("stmnet: stats: %s: %s", resp.Status, resp.Msg)
	}
	var p wire.StatsPayload
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("stmnet: stats payload: %w", err)
	}
	return &p, nil
}

// Result is one op's outcome: for GET, Flag is "found" and Vals the
// value vector; for ADD, Vals[0] is the post-add word; for CAS, Flag is
// "swapped" and Vals[0] the observed old word; for PUT, Flag is always
// true.
type Result = wire.Result

// ServerStats re-exports the server counter block for report code.
type ServerStats = wire.ServerStats

// StatsPayload re-exports the full statistics payload.
type StatsPayload = wire.StatsPayload

// Neg converts a positive decrement into OpAdd's two's-complement
// delta: Add(key, Neg(10)) subtracts 10 from word 0.
func Neg(n uint64) uint64 { return ^n + 1 }

// Batch builds one atomic multi-key transaction. Methods chain; ops
// execute (and their results index) in append order.
type Batch struct {
	ops    []wire.Op
	flags  uint8
	inline [8]wire.Op // ops' first backing array: a batch this small is one allocation
}

// NewBatch returns an empty batch.
func NewBatch() *Batch {
	b := &Batch{}
	b.ops = b.inline[:0]
	return b
}

// Get reads key's whole value vector.
func (b *Batch) Get(key string) *Batch {
	b.ops = append(b.ops, wire.Op{Code: wire.OpGet, Key: key})
	return b
}

// Put writes key's value vector (creating the key). Fewer words than
// the space's arity zero-fill the tail; more than the arity is a
// BadRequest.
func (b *Batch) Put(key string, vals ...uint64) *Batch {
	b.ops = append(b.ops, wire.Op{Code: wire.OpPut, Key: key, Vals: vals})
	return b
}

// Add adds delta (two's-complement; see Neg) to key's word 0, creating
// the key as zero first.
func (b *Batch) Add(key string, delta uint64) *Batch {
	b.ops = append(b.ops, wire.Op{Code: wire.OpAdd, Key: key, Delta: delta})
	return b
}

// CAS compares key's word 0 with expect and stores new on match,
// creating the key as zero first.
func (b *Batch) CAS(key string, expect, new uint64) *Batch {
	b.ops = append(b.ops, wire.Op{Code: wire.OpCAS, Key: key, Expect: expect, New: new})
	return b
}

// ForceUpdate sends an all-GET batch down the server's ordinary
// update-mode path instead of the snapshot-mode read path (measurement
// escape hatch).
func (b *Batch) ForceUpdate() *Batch {
	b.flags |= wire.FlagUpdate
	return b
}

// Len returns the number of ops queued so far.
func (b *Batch) Len() int { return len(b.ops) }
