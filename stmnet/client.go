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
// Failures are typed end to end: a batch that exhausted the server's
// retry budget returns a *stm.MaxAttemptsError (attempt count and final
// abort cause) and a commit whose redo record never became durable
// returns a *stm.NotDurableError — the same concrete types, matching
// the same errors.Is sentinels (stm.ErrMaxAttempts, stm.ErrNotDurable),
// that an embedded stm.Runtime.Run returns in-process.
package stmnet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
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
	pending map[uint64]chan []byte // id → response payload (one shot)
	err     error                  // sticky connection error, guarded by pmu
	nextID  atomic.Uint64

	readerDone chan struct{}
}

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
		pending:    make(map[uint64]chan []byte),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down. In-flight Do calls fail with
// ErrClientClosed (or the connection's earlier sticky error).
func (c *Client) Close() error {
	err := c.nc.Close()
	<-c.readerDone
	return err
}

// readLoop routes response frames to their waiting callers by id.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	for {
		payload, nbuf, err := wire.ReadFrame(br, buf)
		if err != nil {
			if err == io.EOF {
				err = ErrClientClosed
			}
			c.failAll(err)
			return
		}
		buf = nbuf
		var id uint64
		switch wire.Kind(payload) {
		case wire.KindTxnResp:
			// Peek the id without a full decode; the waiter decodes.
			if len(payload) < 9 {
				c.failAll(fmt.Errorf("stmnet: short response payload"))
				return
			}
			id = le64(payload[1:9])
		case wire.KindStatsResp:
			if len(payload) < 9 {
				c.failAll(fmt.Errorf("stmnet: short response payload"))
				return
			}
			id = le64(payload[1:9])
		default:
			c.failAll(fmt.Errorf("stmnet: unexpected message kind %d", wire.Kind(payload)))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if !ok {
			c.failAll(fmt.Errorf("stmnet: response for unknown request id %d", id))
			return
		}
		// The payload buffer is reused for the next frame: hand the
		// waiter its own copy.
		own := make([]byte, len(payload))
		copy(own, payload)
		ch <- own
	}
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// failAll fails every pending call and makes the error sticky.
func (c *Client) failAll(err error) {
	c.pmu.Lock()
	if c.err == nil {
		c.err = err
	}
	pend := c.pending
	c.pending = make(map[uint64]chan []byte)
	c.pmu.Unlock()
	for _, ch := range pend {
		close(ch) // a closed channel signals "look at the sticky error"
	}
	c.nc.Close()
}

// roundTrip registers a pending id, writes the frame, and waits for the
// response payload.
func (c *Client) roundTrip(id uint64, encode func(buf []byte) ([]byte, error)) ([]byte, error) {
	ch := make(chan []byte, 1)
	c.pmu.Lock()
	if c.err != nil {
		err := c.err
		c.pmu.Unlock()
		return nil, err
	}
	c.pending[id] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	payload, err := encode(c.enc[:0])
	if err == nil {
		c.enc = payload
		frame := wire.AppendFrame(nil, payload)
		_, err = c.bw.Write(frame)
		if err == nil {
			err = c.bw.Flush()
		}
	}
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return nil, err
	}

	resp, ok := <-ch
	if !ok {
		c.pmu.Lock()
		err := c.err
		c.pmu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	return resp, nil
}

// Do executes one batch as a single atomic transaction on the server
// and returns one Result per op, in op order. Concurrent Do calls
// pipeline over the connection. The returned error is nil only when the
// batch committed (and, under DurabilitySync, its redo record is
// durable); see the package comment for the typed failure modes.
func (c *Client) Do(b *Batch) ([]Result, error) {
	if len(b.ops) == 0 {
		return nil, fmt.Errorf("stmnet: empty batch")
	}
	id := c.nextID.Add(1)
	req := wire.TxnReq{ID: id, Flags: b.flags, Ops: b.ops}
	payload, err := c.roundTrip(id, func(buf []byte) ([]byte, error) {
		return wire.AppendTxnReq(buf, &req)
	})
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeTxnResp(payload)
	if err != nil {
		return nil, err
	}
	if resp.ID != id {
		return nil, fmt.Errorf("stmnet: response id %d for request %d", resp.ID, id)
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(b.ops) {
		return nil, fmt.Errorf("stmnet: %d results for %d ops", len(resp.Results), len(b.ops))
	}
	out := make([]Result, len(resp.Results))
	for i := range resp.Results {
		out[i] = Result{Flag: resp.Results[i].Flag, Vals: resp.Results[i].Vals}
	}
	return out, nil
}

// Stats fetches the server's statistics snapshot: its own counters plus
// the embedded runtime's partition statistics, commit-latency histogram,
// pool counters and (when durable) redo-log counters.
func (c *Client) Stats() (*wire.StatsPayload, error) {
	id := c.nextID.Add(1)
	payload, err := c.roundTrip(id, func(buf []byte) ([]byte, error) {
		return wire.AppendStatsReq(buf, &wire.StatsReq{ID: id}), nil
	})
	if err != nil {
		return nil, err
	}
	resp, body, err := wire.DecodeStatsResp(payload)
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

// Result is one op's outcome, mirroring wire.Result: for GET, Flag is
// "found" and Vals the value vector; for ADD, Vals[0] is the post-add
// word; for CAS, Flag is "swapped" and Vals[0] the observed old word;
// for PUT, Flag is always true.
type Result struct {
	Flag bool
	Vals []uint64
}

// Val returns Vals[0], or 0 when absent — the common single-word read.
func (r Result) Val() uint64 {
	if len(r.Vals) == 0 {
		return 0
	}
	return r.Vals[0]
}

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
	ops   []wire.Op
	flags uint8
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

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
