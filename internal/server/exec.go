package server

import (
	"errors"
	"fmt"

	"repro/internal/wire"
	"repro/stm"
)

// batch is the scratch one TXN batch executes in. A connection's reader
// runs every batch in its one batch, so a steady-state request allocates
// nothing here. The body, option lists and OnAbort hook handed to Run are
// built once per batch.
type batch struct {
	srv  *Server
	req  *wire.TxnReq
	snap bool // req runs in snapshot mode; read by the OnAbort hook
	// gate is the largest log sequence of any commit req made (its
	// transaction's, a key creation's) that is not yet known durable: the
	// reply may not leave before the durable watermark reaches it. 0 when
	// nothing is owed. seq is where Run leaves the transaction's own.
	gate, seq uint64

	addrs   []stm.Addr // req's keys, resolved; Nil only for a GET of a never-created key
	results []wire.Result
	// words backs every vector an attempt produces: GET values, ADD and
	// CAS result words, zero-filled PUT vectors.
	words   []uint64
	payload []byte // the encoded reply

	body                     func(*stm.Tx) error
	snapOpts, roOpts, rwOpts []stm.TxOpt
}

func (s *Server) newBatch() *batch {
	b := &batch{srv: s}
	b.body = b.run
	b.rwOpts = []stm.TxOpt{stm.OnAbort(func(stm.AbortCause, int) {
		s.stat.TxnAborts.Add(1)
		if b.snap {
			s.stat.SnapshotAborts.Add(1)
		}
	})}
	if s.cfg.MaxAttempts > 0 {
		b.rwOpts = append(b.rwOpts, stm.MaxAttempts(s.cfg.MaxAttempts))
	}
	b.roOpts = append([]stm.TxOpt{stm.ReadOnly()}, b.rwOpts...)
	b.snapOpts = append([]stm.TxOpt{stm.Snapshot()}, b.rwOpts...)
	if s.syncCommits {
		// A write batch returns at commit and owes the fsync wait, which
		// the connection pays by holding the reply (conn.hold).
		b.rwOpts = append(b.rwOpts, stm.DeferDurable(&b.seq))
	}
	return b
}

// execTxn runs req in b and returns the encoded response, which aliases
// b until b's next request, leaving in b.gate what the reply waits for.
func (s *Server) execTxn(b *batch, req *wire.TxnReq) []byte {
	resp := s.exec(b, req)
	b.payload = wire.AppendTxnResp(b.payload[:0], &resp)
	return b.payload
}

// exec runs req as a single transaction and builds its response. Key
// resolution happens up front, outside the transaction (interning
// write-class keys creates their zeroed objects in separate commits);
// the batch transaction then touches only heap words, so the retried
// body is pure STM work and safe to re-run on abort.
func (s *Server) exec(b *batch, req *wire.TxnReq) wire.TxnResp {
	s.stat.Txns.Add(1)
	s.stat.TxnOps.Add(uint64(len(req.Ops)))

	n, arity := len(req.Ops), s.space.Arity()
	if cap(b.addrs) < n {
		b.addrs = make([]stm.Addr, n)
		b.results = make([]wire.Result, n)
		b.words = make([]uint64, 0, n*arity) // no op produces more than arity words
	}
	b.req, b.addrs, b.results = req, b.addrs[:n], b.results[:n]
	b.gate, b.seq = 0, 0
	for i := range req.Ops {
		op := &req.Ops[i]
		switch op.Code {
		case wire.OpGet:
			b.addrs[i], _ = s.space.Lookup(op.Key) // Nil when absent
		case wire.OpPut:
			if len(op.Vals) == 0 || len(op.Vals) > arity {
				return s.badRequest(req.ID, fmt.Sprintf("op %d: PUT with %d vals (space arity %d)", i, len(op.Vals), arity))
			}
			fallthrough
		case wire.OpAdd, wire.OpCAS:
			addr, seq, err := s.space.intern(op.Key)
			if err != nil {
				return s.txnError(req.ID, err)
			}
			b.addrs[i], b.gate = addr, max(b.gate, seq)
		default:
			return s.badRequest(req.ID, fmt.Sprintf("op %d: unknown opcode %d", i, op.Code))
		}
	}

	opts := b.rwOpts
	b.snap = false
	if req.ReadOnly() {
		s.stat.ReadOnlyTxns.Add(1)
		opts = b.roOpts
		if req.Flags&wire.FlagUpdate == 0 {
			s.stat.SnapshotTxns.Add(1)
			opts, b.snap = b.snapOpts, true
		}
	}
	err := s.rt.Run(b.body, opts...)
	b.gate = max(b.gate, b.seq)
	if err != nil {
		return s.txnError(req.ID, err)
	}
	return wire.TxnResp{ID: req.ID, Status: wire.StatusOK, Results: b.results}
}

// take carves the next n words off the batch's backing array.
func (b *batch) take(n int) []uint64 {
	end := len(b.words) + n
	b.words = b.words[:end]
	return b.words[end-n:]
}

// run is the transaction body: one attempt at every op of the batch.
func (b *batch) run(tx *stm.Tx) error {
	arity := b.srv.space.Arity()
	b.words = b.words[:0]
	for i := range b.req.Ops {
		op, addr, res := &b.req.Ops[i], b.addrs[i], &b.results[i]
		switch op.Code {
		case wire.OpGet:
			if addr == stm.Nil {
				res.Flag, res.Vals = false, nil
				continue
			}
			res.Flag, res.Vals = true, b.take(arity)
			tx.LoadWords(addr, res.Vals)
		case wire.OpPut:
			// Short PUTs zero the tail: a PUT always writes the whole
			// fixed-arity vector.
			vals := b.take(arity)
			clear(vals[copy(vals, op.Vals):])
			tx.StoreWords(addr, vals)
			res.Flag, res.Vals = true, nil
		case wire.OpAdd:
			res.Flag, res.Vals = true, b.take(1)
			res.Vals[0] = tx.Load(addr) + op.Delta
			tx.Store(addr, res.Vals[0])
		case wire.OpCAS:
			res.Vals = b.take(1)
			res.Vals[0] = tx.Load(addr)
			if res.Flag = res.Vals[0] == op.Expect; res.Flag {
				tx.Store(addr, op.New)
			}
		}
	}
	return nil
}

// txnError maps a Run error onto its typed wire status. The concrete
// error types cross the wire as codes plus their fields and are rebuilt
// by the client, so errors.Is/errors.As work end to end.
func (s *Server) txnError(id uint64, err error) wire.TxnResp {
	var ma *stm.MaxAttemptsError
	if errors.As(err, &ma) {
		return wire.TxnResp{
			ID:       id,
			Status:   wire.StatusMaxAttempts,
			Attempts: uint32(ma.Attempts),
			Cause:    ma.Cause,
		}
	}
	var nd *stm.NotDurableError
	if errors.As(err, &nd) {
		return wire.TxnResp{ID: id, Status: wire.StatusNotDurable, Seq: nd.Seq}
	}
	return s.internalErr(id, err)
}

func (s *Server) badRequest(id uint64, msg string) wire.TxnResp {
	s.stat.BadRequests.Add(1)
	return wire.TxnResp{ID: id, Status: wire.StatusBadRequest, Msg: msg}
}

func (s *Server) internalErr(id uint64, err error) wire.TxnResp {
	return wire.TxnResp{ID: id, Status: wire.StatusInternal, Msg: err.Error()}
}
