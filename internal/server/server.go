// Package server puts the partitioned STM behind a TCP wire: a keyed
// object space (string key → fixed-arity word vector, see KeySpace)
// served over the internal/wire protocol with pipelined, batched
// multi-key transactions.
//
// # Connection model
//
// Each accepted connection is one goroutine that runs its requests to
// completion: read a frame, execute the TXN batch through the pooled
// stm.Runtime.Run path, append the reply to the connection's write
// buffer. It flushes only when about to wait for the peer — not while a
// whole next frame sits in its read buffer — so a pipelined burst that
// arrived in one read leaves in one write, in request order, and no
// request costs a goroutine, a channel hop or a syscall of its own.
//
// On a runtime whose commits must be fsynced before they are acknowledged
// (DurabilitySync) a write batch runs inline all the same: it commits
// without parking (stm.DeferDurable) and its encoded reply is held, with
// the commit's log sequence as its gate, until the log's durable watermark
// passes that sequence. The connection's releaser goroutine waits for the
// oldest gate and then writes every held reply the sync covered in one
// write — so a connection's pipelined commits share group commits with
// each other and with every other connection's, and a request costs no
// goroutine, no park and no syscall of its own. Replies that owe nothing
// (GET batches, a failed CAS, an error) are written at once and may
// overtake held ones; the client matches by request id. A connection
// holds at most maxHeld replies; past that its reader blocks and TCP
// holds the client back. A peer that pipelines and never reads likewise
// blocks its own reader and releaser in the flush, and nothing else.
//
// All-GET batches run in snapshot mode (stm.Snapshot()), so heavy read
// traffic commits abort-free against any write load while retention
// suffices; wire.FlagUpdate opts a batch out for measurements. Write
// batches run as ordinary update transactions.
//
// # Durability of an acked response
//
// What a StatusOK TxnResp promises depends on the runtime's WAL mode:
// under DurabilityOff it means "committed in memory"; under
// DurabilityAsync "committed in memory, redo record queued" (a crash
// can lose the last group-commit interval); under DurabilitySync the
// response leaves only after the record of every commit the request made
// — its transaction's, and that of any key it created — is synced: an
// acked response survives any crash. A commit whose record could not
// become durable is reported as StatusNotDurable, never silently acked:
// at once when the log refused the record, and for every held reply above
// the final watermark when the log dies under them.
//
// Only the ack promises survival. The commit itself is visible in memory
// from the moment it happens: a GET may return a value whose writer has
// not been acked yet — on another connection it always could, and with
// inline execution on the writer's own connection too — and a crash can
// then take that value back.
//
// # Shutdown
//
// Close is graceful by construction: stop accepting, expire every read
// so each connection answers what it has already received, waits out the
// syncs its held replies need and releases them, flushes (within
// closeWriteGrace, for a peer that stopped reading) and ends, and only
// then close the runtime's redo log — so a DurabilitySync commit or a
// held reply can never race the WAL teardown (a hazard stm/wal.go
// documents).
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/stm"
)

// Config configures a Server.
type Config struct {
	// Runtime is the embedded STM runtime (required). The server owns
	// its shutdown: Close drains in-flight transactions and then calls
	// Runtime.Close (flushing the redo log, when one is attached).
	Runtime *stm.Runtime
	// Arity is the value vector size in words (1..wire.MaxArity).
	// Default 8.
	Arity int
	// MaxAttempts bounds each batch's retry loop; past it the batch
	// fails with StatusMaxAttempts instead of retrying forever. 0 means
	// unlimited (the default). A read-only batch may spend one attempt of
	// the bound on its unlogged first attempt: a FlagUpdate GET batch
	// (run as ReadOnly) when a commit to a key it read lands mid-batch, a
	// snapshot GET batch when the store cannot serve a stale read.
	MaxAttempts int
}

// serverStats holds the server's own counters (atomic mirrors of
// wire.ServerStats).
type serverStats struct {
	Conns          atomic.Uint64
	CurConns       atomic.Int64
	Frames         atomic.Uint64
	Txns           atomic.Uint64
	TxnOps         atomic.Uint64
	ReadOnlyTxns   atomic.Uint64
	SnapshotTxns   atomic.Uint64
	TxnAborts      atomic.Uint64
	SnapshotAborts atomic.Uint64
	BadRequests    atomic.Uint64
}

// closeWriteGrace bounds how long Close waits for a slow peer to drain
// its pending responses before dropping them.
const closeWriteGrace = 5 * time.Second

// Server serves the keyed object space over a listener.
type Server struct {
	cfg         Config
	rt          *stm.Runtime
	space       *KeySpace
	stat        serverStats
	syncCommits bool // acks wait for the fsync: see conn.hold

	mu       sync.Mutex
	lis      net.Listener
	conns    map[*conn]struct{}
	closing  bool
	closed   chan struct{}
	connWG   sync.WaitGroup // one per live connection
	closeErr error
	closeOne sync.Once
}

// New creates a server over cfg.Runtime (which must outlive it; the
// server closes it on Close).
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("server: Config.Runtime is required")
	}
	if cfg.Arity == 0 {
		cfg.Arity = 8
	}
	if cfg.Arity < 1 || cfg.Arity > wire.MaxArity {
		return nil, fmt.Errorf("server: arity %d (want 1..%d)", cfg.Arity, wire.MaxArity)
	}
	space, err := NewKeySpace(cfg.Runtime, cfg.Arity)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:         cfg,
		rt:          cfg.Runtime,
		space:       space,
		syncCommits: cfg.Runtime.Durability() == stm.DurabilitySync,
		conns:       make(map[*conn]struct{}),
		closed:      make(chan struct{}),
	}, nil
}

// Space exposes the keyed object space (for tests and embedding).
func (s *Server) Space() *KeySpace { return s.space }

// ListenAndServe listens on addr (":7437"-style) and serves until
// Close.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Close. It returns nil after a
// graceful Close — including one that won the race against a Serve still
// being started (`go srv.Serve(lis)` followed at once by Close): the
// listener is closed and there was nothing to serve — or the first accept
// error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return lis.Close()
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

// Close shuts the server down gracefully: stop accepting, unblock every
// connection's reader, wait for all in-flight transactions to finish
// and their responses to flush, close the connections, and finally
// close the runtime (flushing the redo log). Safe to call multiple
// times and concurrently with Serve.
func (s *Server) Close() error {
	s.closeOne.Do(func() {
		s.mu.Lock()
		s.closing = true
		lis := s.lis
		// A read past this deadline fails at once: the connection answers
		// what it has buffered, releases its held replies, flushes and
		// ends. Writes get a bounded grace so a peer that stopped
		// reading cannot hang shutdown — its remaining replies drop.
		for c := range s.conns {
			c.nc.SetReadDeadline(time.Now())
			c.nc.SetWriteDeadline(time.Now().Add(closeWriteGrace))
		}
		s.mu.Unlock()
		if lis != nil {
			lis.Close()
		}
		s.connWG.Wait()
		// No connection, no reader, no in-flight transaction: the redo
		// log can tear down without racing a Sync commit.
		s.closeErr = s.rt.Close()
		close(s.closed)
	})
	<-s.closed
	return s.closeErr
}

// Stats returns the server's own counters.
func (s *Server) Stats() wire.ServerStats {
	return wire.ServerStats{
		Conns:          s.stat.Conns.Load(),
		CurConns:       s.stat.CurConns.Load(),
		Frames:         s.stat.Frames.Load(),
		Txns:           s.stat.Txns.Load(),
		TxnOps:         s.stat.TxnOps.Load(),
		ReadOnlyTxns:   s.stat.ReadOnlyTxns.Load(),
		SnapshotTxns:   s.stat.SnapshotTxns.Load(),
		TxnAborts:      s.stat.TxnAborts.Load(),
		SnapshotAborts: s.stat.SnapshotAborts.Load(),
		BadRequests:    s.stat.BadRequests.Load(),
		Keys:           uint64(s.space.Len()),
	}
}

// statsPayload assembles the full statistics snapshot served by the
// STATS op.
func (s *Server) statsPayload() *wire.StatsPayload {
	p := &wire.StatsPayload{
		Server:  s.Stats(),
		Parts:   s.rt.Stats(),
		Latency: s.rt.LatencyStats(),
		Pool:    s.rt.PoolStats(),
	}
	if ws, ok := s.rt.WALStats(); ok {
		p.WAL = &ws
	}
	return p
}

// conn is one accepted connection, served by its reader goroutine and,
// on a DurabilitySync runtime, a releaser goroutine beside it.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	b   *batch // the reader's scratch

	// wmu guards bw for the reader and the releaser. bw keeps its first
	// write error: a dead connection drops every later reply.
	wmu sync.Mutex
	bw  *bufio.Writer

	// Replies waiting for the durable watermark, oldest first; gates
	// ascend, because sequences grow in commit order and the reader
	// commits one request at a time. hmu guards them; hcond wakes the
	// releaser when there is one to wait for (or none will come: hdone)
	// and the reader when there is room again.
	hmu      sync.Mutex
	hcond    sync.Cond
	held     []heldReply
	hframes  []byte        // the held replies' frames, back to back
	hpeak    int           // the most replies ever held at once
	hdone    bool          // the reader has finished
	released chan struct{} // closed when the releaser has; nil without one
}

// heldReply is one reply in conn.held: whom it answers, what it waits
// for, and where its frame ends in conn.hframes.
type heldReply struct {
	id, gate uint64
	end      int
}

// maxHeld caps the replies one connection holds back. A sync covers
// everything published before it started, so more than a few groups'
// worth in flight buys nothing; the bound is what the peer can make the
// server buffer.
const maxHeld = 64

// startConn registers a connection and launches its reader.
func (s *Server) startConn(nc net.Conn) {
	c := &conn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, 64<<10),
		bw:  bufio.NewWriterSize(nc, 64<<10),
		b:   s.newBatch(),
	}
	c.hcond.L = &c.hmu
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	s.stat.Conns.Add(1)
	s.stat.CurConns.Add(1)

	if s.syncCommits {
		c.released = make(chan struct{})
		go c.release()
	}
	go c.serve()
}

// serve runs the connection until the peer hangs up, a protocol error
// or a failed write breaks it, or the server closes. Every request read
// by then is answered (or dropped, if the peer is gone) before teardown.
func (c *conn) serve() {
	defer c.teardown()
	s := c.srv
	var buf []byte
	for {
		// Flush before waiting for the peer, and only then: with a whole
		// frame already buffered the read cannot block.
		if !c.frameBuffered() {
			c.write(nil, true)
		}
		payload, nbuf, err := wire.ReadFrame(c.br, buf)
		if err != nil {
			// EOF, peer reset, Close's read deadline, or a protocol error.
			return
		}
		buf = nbuf
		s.stat.Frames.Add(1)
		switch wire.Kind(payload) {
		case wire.KindTxnReq:
			req, err := wire.DecodeTxnReq(payload)
			if err != nil {
				// Handshake-level garbage: answer nothing (the id is not
				// trustworthy) and break the connection.
				s.stat.BadRequests.Add(1)
				return
			}
			if reply := s.execTxn(c.b, req); c.b.gate != 0 {
				c.hold(req.ID, c.b.gate, reply)
			} else {
				c.write(reply, false)
			}
		case wire.KindStatsReq:
			req, err := wire.DecodeStatsReq(payload)
			if err != nil {
				s.stat.BadRequests.Add(1)
				return
			}
			status, msg := wire.StatusOK, ""
			body, err := json.Marshal(s.statsPayload())
			if err != nil {
				status, msg = wire.StatusInternal, err.Error()
			}
			c.write(wire.AppendStatsResp(nil, req.ID, status, body, msg), false)
		default:
			// Unknown kind: protocol error, break the connection.
			s.stat.BadRequests.Add(1)
			return
		}
	}
}

// frameBuffered reports whether the read buffer holds a whole frame.
func (c *conn) frameBuffered() bool {
	have := c.br.Buffered() - wire.FrameHeaderSize
	if have < 0 {
		return false
	}
	hdr, _ := c.br.Peek(4)
	return have >= int(binary.LittleEndian.Uint32(hdr))
}

// hold keeps a reply back until the durable watermark reaches gate. With
// maxHeld replies held it blocks the reader until the releaser makes room.
func (c *conn) hold(id, gate uint64, reply []byte) {
	c.hmu.Lock()
	for len(c.held) == maxHeld {
		c.hcond.Wait()
	}
	c.hframes = wire.AppendFrame(c.hframes, reply)
	c.held = append(c.held, heldReply{id: id, gate: gate, end: len(c.hframes)})
	c.hpeak = max(c.hpeak, len(c.held))
	c.hmu.Unlock()
	c.hcond.Signal()
}

// release is the releaser goroutine: wait for the oldest held reply's
// gate, then send every reply the watermark now covers in one write. It
// ends once the reader has and nothing is held.
func (c *conn) release() {
	defer close(c.released)
	var out, scratch []byte
	for {
		c.hmu.Lock()
		for len(c.held) == 0 && !c.hdone {
			c.hcond.Wait()
		}
		if len(c.held) == 0 {
			c.hmu.Unlock()
			return
		}
		gate := c.held[0].gate
		c.hmu.Unlock()

		durable, ok := c.srv.rt.WaitDurable(gate)

		c.hmu.Lock()
		n := 0
		for n < len(c.held) && c.held[n].gate <= durable {
			n++
		}
		cut := 0
		if n > 0 {
			cut = c.held[n-1].end
		}
		out = append(out[:0], c.hframes[:cut]...)
		if !ok {
			// The log died or closed: nothing above its final watermark
			// will ever be durable. Those commits are applied in memory
			// and owed an answer that says so.
			for _, h := range c.held[n:] {
				scratch = wire.AppendTxnResp(scratch[:0], &wire.TxnResp{ID: h.id, Status: wire.StatusNotDurable, Seq: h.gate})
				out = wire.AppendFrame(out, scratch)
			}
			n, cut = len(c.held), len(c.hframes)
		}
		c.hframes = c.hframes[:copy(c.hframes, c.hframes[cut:])]
		c.held = c.held[:copy(c.held, c.held[n:])]
		for i := range c.held {
			c.held[i].end -= cut
		}
		c.hmu.Unlock()
		c.hcond.Signal()
		c.wmu.Lock()
		c.writeLocked(out, true)
		c.wmu.Unlock()
	}
}

// write appends payload (if any) to the write buffer as one frame and
// optionally flushes.
func (c *conn) write(payload []byte, flush bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var frame []byte
	if payload != nil {
		frame = wire.AppendFrame(c.bw.AvailableBuffer(), payload)
	}
	c.writeLocked(frame, flush)
}

// writeLocked appends whole frames to the write buffer and optionally
// flushes; the caller holds wmu. A failed write closes the socket under
// the reader.
func (c *conn) writeLocked(frames []byte, flush bool) {
	_, err := c.bw.Write(frames)
	if err == nil && flush {
		err = c.bw.Flush()
	}
	if err != nil {
		c.nc.Close()
	}
}

// teardown ends the connection: let the releaser send what is still held
// (each reply after the sync it waits for), flush what was buffered, close
// the socket and unregister.
func (c *conn) teardown() {
	if c.released != nil {
		c.hmu.Lock()
		c.hdone = true
		c.hmu.Unlock()
		c.hcond.Signal()
		<-c.released
	}
	c.write(nil, true)
	c.nc.Close()
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.stat.CurConns.Add(-1)
	s.connWG.Done()
}
