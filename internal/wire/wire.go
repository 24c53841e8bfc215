// Package wire is the binary protocol between the network-facing store
// (internal/server, cmd/stmd) and its clients (stmnet). It carries
// pipelined, batched multi-key transactions over any byte stream.
//
// # Framing
//
// The transport is a sequence of length-prefixed frames, the same
// checksummed record idiom as the redo log (internal/wal):
//
//	len uint32  payload length in bytes
//	crc uint32  CRC32C (Castagnoli) over the payload
//	payload
//
// A frame whose length is implausible or whose checksum does not match
// the payload is a protocol error: the connection is broken, not
// resynchronized — TCP does not tear frames, so a bad frame means a bug
// or a hostile peer, and the only safe reaction is to drop the
// connection. Decoding is allocation-bounded (MaxFramePayload) and never
// panics on arbitrary bytes (FuzzDecodeFrame pins this).
//
// # Messages
//
// Every payload begins with a kind byte and a request id. Request ids
// are chosen by the client and echoed verbatim in the response; they
// need only be unique among the connection's in-flight requests, which
// is what makes pipelining work — the server may answer a connection's
// requests in any order (internal/server says when it does), and the
// client routes each response to its caller by id.
//
//	kind 1 (TxnReq):    id, flags, ops — one batched transaction
//	kind 2 (TxnResp):   id, status, results or error detail
//	kind 3 (StatsReq):  id
//	kind 4 (StatsResp): id, status, JSON statistics payload
//
// A TxnReq's ops execute as ONE transaction (stm.Runtime.Run): all of
// them commit atomically or the batch fails as a unit. A batch of only
// GET ops is read-only; the server dispatches it in snapshot mode so
// heavy read traffic commits abort-free (FlagUpdate opts out, for
// measurements that want the validate/extend path).
//
// # Errors
//
// Failures carry typed status codes, not strings: StatusMaxAttempts
// round-trips a *core.MaxAttemptsError (attempt count and final abort
// cause), StatusNotDurable a *core.NotDurableError (the commit applied
// in memory but its redo record never became durable — see the
// durability notes in stm/wal.go). The client package rebuilds the
// concrete error types so errors.Is/errors.As work across the wire
// exactly as they do in-process.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/wal"
)

// Message kinds (first payload byte).
const (
	// KindTxnReq is a batched multi-key transaction request.
	KindTxnReq = 1
	// KindTxnResp answers one TxnReq.
	KindTxnResp = 2
	// KindStatsReq asks for the server's statistics snapshot.
	KindStatsReq = 3
	// KindStatsResp answers one StatsReq with a JSON payload.
	KindStatsResp = 4
)

// OpCode selects one operation inside a TXN batch. Every op names a key;
// values are fixed-arity vectors of 64-bit words (the space's arity is a
// server-side configuration — see internal/server).
type OpCode uint8

const (
	// OpGet reads the key's whole value vector (found=false when the key
	// was never written, with no side effect — a GET does not create).
	OpGet OpCode = 1
	// OpPut writes the key's whole value vector, creating the key if
	// needed. Vals must carry exactly the space's arity.
	OpPut OpCode = 2
	// OpAdd adds Delta (two's-complement, so negative deltas subtract) to
	// word 0 of the key's value, creating the key as zero first; the
	// result carries the post-add word.
	OpAdd OpCode = 3
	// OpCAS compares word 0 against Expect and stores New on match,
	// creating the key as zero first; the result carries the observed old
	// word and whether the swap happened.
	OpCAS OpCode = 4
)

func (c OpCode) String() string {
	switch c {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpAdd:
		return "ADD"
	case OpCAS:
		return "CAS"
	}
	return fmt.Sprintf("OpCode(%d)", uint8(c))
}

// TxnReq flags.
const (
	// FlagUpdate forces an all-GET batch down the ordinary update-mode
	// path instead of the snapshot-mode read path. Measurement escape
	// hatch; normal clients leave flags zero.
	FlagUpdate uint8 = 1 << 0
)

// Status classifies a response. Zero is success.
type Status uint8

const (
	// StatusOK: the batch committed; results are present.
	StatusOK Status = 0
	// StatusMaxAttempts: the batch exhausted the server's retry budget
	// and was rolled back. Attempts and Cause carry the
	// *core.MaxAttemptsError detail.
	StatusMaxAttempts Status = 1
	// StatusNotDurable: the batch COMMITTED in memory, but the server
	// runs DurabilitySync and the commit's redo record never became
	// durable (log closed or died). Seq carries the claimed LSN (0 when
	// the publish was refused). Treat as applied-but-unacknowledged.
	StatusNotDurable Status = 2
	// StatusBadRequest: the batch was malformed (unknown op, wrong
	// arity, oversized key...) and nothing was executed. Msg explains.
	StatusBadRequest Status = 3
	// StatusInternal: the server failed to execute the batch for a
	// reason that is not the client's fault. Msg explains.
	StatusInternal Status = 4
	// StatusClosing: the server is shutting down and refused the batch
	// before executing it.
	StatusClosing Status = 5
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusMaxAttempts:
		return "MAX_ATTEMPTS"
	case StatusNotDurable:
		return "NOT_DURABLE"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusInternal:
		return "INTERNAL"
	case StatusClosing:
		return "CLOSING"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Protocol bounds. Violations are StatusBadRequest (server side) or a
// decode error (codec side), never a large allocation.
const (
	// MaxKeyLen bounds one key's byte length.
	MaxKeyLen = 1024
	// MaxOpsPerTxn bounds the ops in one batch.
	MaxOpsPerTxn = 4096
	// MaxArity bounds a value vector's word count.
	MaxArity = 64
)

// Op is one operation of a TXN batch.
type Op struct {
	Code OpCode
	// Key names the target object (1..MaxKeyLen bytes).
	Key string
	// Vals is OpPut's value vector.
	Vals []uint64
	// Delta is OpAdd's addend (two's-complement).
	Delta uint64
	// Expect and New are OpCAS's comparands (word 0).
	Expect, New uint64
}

// TxnReq is one batched transaction request.
type TxnReq struct {
	ID    uint64
	Flags uint8
	Ops   []Op
}

// ReadOnly reports whether every op in the batch is a GET — the
// precondition for the snapshot-mode read path.
func (r *TxnReq) ReadOnly() bool {
	for i := range r.Ops {
		if r.Ops[i].Code != OpGet {
			return false
		}
	}
	return true
}

// Result is one op's outcome inside a committed batch, indexed like the
// request's Ops. Flag means: GET — key found; CAS — swap happened;
// PUT/ADD — always true.
type Result struct {
	Flag bool
	// Vals: GET — the value vector (nil when not found); ADD — one word,
	// the post-add value; CAS — one word, the observed old value.
	Vals []uint64
}

// Val returns Vals[0], or 0 when absent — the common single-word read.
func (r Result) Val() uint64 {
	if len(r.Vals) == 0 {
		return 0
	}
	return r.Vals[0]
}

// TxnResp answers one TxnReq.
type TxnResp struct {
	ID     uint64
	Status Status
	// Results is present iff Status == StatusOK, one entry per request
	// op.
	Results []Result
	// Attempts and Cause carry StatusMaxAttempts detail.
	Attempts uint32
	Cause    core.AbortCause
	// Seq carries StatusNotDurable detail (the commit's claimed LSN).
	Seq uint64
	// Msg carries human-readable detail for StatusBadRequest,
	// StatusInternal and StatusClosing.
	Msg string
}

// StatsReq asks for the server's statistics snapshot.
type StatsReq struct {
	ID uint64
}

// StatsResp answers one StatsReq.
type StatsResp struct {
	ID     uint64
	Status Status
	// Payload is the JSON-decoded statistics (nil unless StatusOK).
	Payload *StatsPayload
	Msg     string
}

// ServerStats is the server's own counter block inside a StatsPayload
// (the engine-level statistics ride alongside as PartStats etc).
type ServerStats struct {
	// Conns counts connections ever accepted; CurConns the live ones.
	Conns    uint64
	CurConns int64
	// Frames counts frames read; Txns batches executed; TxnOps the ops
	// they carried.
	Frames uint64
	Txns   uint64
	TxnOps uint64
	// ReadOnlyTxns counts all-GET batches; SnapshotTxns the subset
	// dispatched in snapshot mode.
	ReadOnlyTxns uint64
	SnapshotTxns uint64
	// TxnAborts counts aborted attempts across all batches;
	// SnapshotAborts the subset inside snapshot-mode batches (zero while
	// retention suffices — the loopback integration test pins this).
	TxnAborts      uint64
	SnapshotAborts uint64
	// BadRequests counts batches refused before execution.
	BadRequests uint64
	// Keys counts interned keys (live objects in the keyed space).
	Keys uint64
}

// StatsPayload is the JSON body of a StatsResp: the server's counters
// plus the embedded runtime's per-partition statistics, commit-latency
// histogram, thread-pool counters and (when durable) redo-log counters.
type StatsPayload struct {
	Server  ServerStats
	Parts   []core.PartStats
	Latency stats.HistSnapshot
	Pool    core.PoolStats
	WAL     *wal.Stats `json:",omitempty"`
}

// --- Message encoding ---------------------------------------------------

// AppendTxnReq appends req's encoded payload (no frame header) to buf.
func AppendTxnReq(buf []byte, req *TxnReq) ([]byte, error) {
	if len(req.Ops) == 0 || len(req.Ops) > MaxOpsPerTxn {
		return buf, fmt.Errorf("wire: batch of %d ops (want 1..%d)", len(req.Ops), MaxOpsPerTxn)
	}
	buf = append(buf, KindTxnReq)
	buf = binary.LittleEndian.AppendUint64(buf, req.ID)
	buf = append(buf, req.Flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Ops)))
	for i := range req.Ops {
		op := &req.Ops[i]
		if len(op.Key) == 0 || len(op.Key) > MaxKeyLen {
			return buf, fmt.Errorf("wire: op %d key length %d (want 1..%d)", i, len(op.Key), MaxKeyLen)
		}
		buf = append(buf, uint8(op.Code))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(op.Key)))
		buf = append(buf, op.Key...)
		switch op.Code {
		case OpGet:
		case OpPut:
			if len(op.Vals) == 0 || len(op.Vals) > MaxArity {
				return buf, fmt.Errorf("wire: op %d PUT with %d vals (want 1..%d)", i, len(op.Vals), MaxArity)
			}
			buf = append(buf, uint8(len(op.Vals)))
			for _, v := range op.Vals {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		case OpAdd:
			buf = binary.LittleEndian.AppendUint64(buf, op.Delta)
		case OpCAS:
			buf = binary.LittleEndian.AppendUint64(buf, op.Expect)
			buf = binary.LittleEndian.AppendUint64(buf, op.New)
		default:
			return buf, fmt.Errorf("wire: op %d has unknown opcode %d", i, op.Code)
		}
	}
	return buf, nil
}

// AppendTxnResp appends resp's encoded payload (no frame header) to buf.
func AppendTxnResp(buf []byte, resp *TxnResp) []byte {
	buf = append(buf, KindTxnResp)
	buf = binary.LittleEndian.AppendUint64(buf, resp.ID)
	buf = append(buf, uint8(resp.Status))
	switch resp.Status {
	case StatusOK:
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(resp.Results)))
		for i := range resp.Results {
			r := &resp.Results[i]
			flag := uint8(0)
			if r.Flag {
				flag = 1
			}
			buf = append(buf, flag, uint8(len(r.Vals)))
			for _, v := range r.Vals {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		}
	case StatusMaxAttempts:
		buf = binary.LittleEndian.AppendUint32(buf, resp.Attempts)
		buf = append(buf, uint8(resp.Cause))
	case StatusNotDurable:
		buf = binary.LittleEndian.AppendUint64(buf, resp.Seq)
	default:
		msg := resp.Msg
		if len(msg) > 1<<15 {
			msg = msg[:1<<15]
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
		buf = append(buf, msg...)
	}
	return buf
}

// AppendStatsReq appends req's encoded payload (no frame header) to buf.
func AppendStatsReq(buf []byte, req *StatsReq) []byte {
	buf = append(buf, KindStatsReq)
	return binary.LittleEndian.AppendUint64(buf, req.ID)
}

// AppendStatsResp appends a StatsResp payload carrying the pre-marshaled
// JSON body (status StatusOK), or an error status with msg.
func AppendStatsResp(buf []byte, id uint64, status Status, body []byte, msg string) []byte {
	buf = append(buf, KindStatsResp)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = append(buf, uint8(status))
	if status == StatusOK {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
		return append(buf, body...)
	}
	if len(msg) > 1<<15 {
		msg = msg[:1<<15]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	return append(buf, msg...)
}

// --- Message decoding ---------------------------------------------------

// reader is a bounds-checked little-endian cursor over one payload.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d", what, r.off)
	}
}

func (r *reader) u8(what string) uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16(what string) uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail(what)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) words(n int, what string) []uint64 {
	if r.err != nil || n < 0 || r.off+8*n > len(r.b) {
		r.fail(what)
		return nil
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = binary.LittleEndian.Uint64(r.b[r.off+8*i:])
	}
	r.off += 8 * n
	return out
}

// done returns the decode error, including trailing-garbage detection:
// a payload with bytes past the message is malformed, not ignorable.
func (r *reader) done(kind string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %s carries %d trailing bytes", kind, len(r.b)-r.off)
	}
	return nil
}

// Kind peeks a payload's message kind (0 when empty).
func Kind(payload []byte) uint8 {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}

// DecodeTxnReq decodes a KindTxnReq payload.
func DecodeTxnReq(payload []byte) (*TxnReq, error) {
	r := &reader{b: payload}
	if k := r.u8("kind"); k != KindTxnReq && r.err == nil {
		return nil, fmt.Errorf("wire: kind %d is not a TxnReq", k)
	}
	req := &TxnReq{ID: r.u64("id"), Flags: r.u8("flags")}
	n := int(r.u16("op count"))
	if r.err == nil && (n == 0 || n > MaxOpsPerTxn) {
		return nil, fmt.Errorf("wire: batch of %d ops (want 1..%d)", n, MaxOpsPerTxn)
	}
	if r.err != nil {
		return nil, r.err
	}
	req.Ops = make([]Op, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var op Op
		op.Code = OpCode(r.u8("opcode"))
		kl := int(r.u16("key length"))
		if r.err == nil && (kl == 0 || kl > MaxKeyLen) {
			return nil, fmt.Errorf("wire: op %d key length %d (want 1..%d)", i, kl, MaxKeyLen)
		}
		op.Key = string(r.bytes(kl, "key"))
		switch op.Code {
		case OpGet:
		case OpPut:
			nv := int(r.u8("val count"))
			if r.err == nil && (nv == 0 || nv > MaxArity) {
				return nil, fmt.Errorf("wire: op %d PUT with %d vals (want 1..%d)", i, nv, MaxArity)
			}
			op.Vals = r.words(nv, "vals")
		case OpAdd:
			op.Delta = r.u64("delta")
		case OpCAS:
			op.Expect = r.u64("expect")
			op.New = r.u64("new")
		default:
			if r.err == nil {
				return nil, fmt.Errorf("wire: op %d has unknown opcode %d", i, op.Code)
			}
		}
		req.Ops = append(req.Ops, op)
	}
	if err := r.done("TxnReq"); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeTxnResp decodes a KindTxnResp payload. Nothing it returns
// aliases payload, so the caller may reuse that buffer at once. Every
// Vals is carved from one backing array, each capped at its own length
// so an append to one result cannot run into its neighbour.
func DecodeTxnResp(payload []byte) (TxnResp, error) {
	r := &reader{b: payload}
	if k := r.u8("kind"); k != KindTxnResp && r.err == nil {
		return TxnResp{}, fmt.Errorf("wire: kind %d is not a TxnResp", k)
	}
	resp := TxnResp{ID: r.u64("id"), Status: Status(r.u8("status"))}
	switch resp.Status {
	case StatusOK:
		n := int(r.u16("result count"))
		if r.err == nil && n > MaxOpsPerTxn {
			return TxnResp{}, fmt.Errorf("wire: %d results (max %d)", n, MaxOpsPerTxn)
		}
		if r.err != nil {
			return TxnResp{}, r.err
		}
		resp.Results = make([]Result, n)
		// What is left of the payload bounds the words it can carry, so
		// the appends below never grow the array.
		words := make([]uint64, 0, (len(payload)-r.off)/8)
		for i := 0; i < n && r.err == nil; i++ {
			res := &resp.Results[i]
			res.Flag = r.u8("flag") != 0
			nv := int(r.u8("val count"))
			if r.err == nil && nv > MaxArity {
				return TxnResp{}, fmt.Errorf("wire: result %d with %d vals (max %d)", i, nv, MaxArity)
			}
			raw := r.bytes(8*nv, "vals")
			if len(raw) == 0 {
				continue
			}
			start := len(words)
			for ; len(raw) > 0; raw = raw[8:] {
				words = append(words, binary.LittleEndian.Uint64(raw))
			}
			res.Vals = words[start:len(words):len(words)]
		}
	case StatusMaxAttempts:
		resp.Attempts = r.u32("attempts")
		resp.Cause = core.AbortCause(r.u8("cause"))
	case StatusNotDurable:
		resp.Seq = r.u64("seq")
	default:
		ml := int(r.u16("msg length"))
		resp.Msg = string(r.bytes(ml, "msg"))
	}
	if err := r.done("TxnResp"); err != nil {
		return TxnResp{}, err
	}
	return resp, nil
}

// DecodeStatsReq decodes a KindStatsReq payload.
func DecodeStatsReq(payload []byte) (*StatsReq, error) {
	r := &reader{b: payload}
	if k := r.u8("kind"); k != KindStatsReq && r.err == nil {
		return nil, fmt.Errorf("wire: kind %d is not a StatsReq", k)
	}
	req := &StatsReq{ID: r.u64("id")}
	if err := r.done("StatsReq"); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeStatsResp decodes a KindStatsResp payload, returning the raw
// JSON body for the caller to unmarshal (Payload stays nil here — the
// codec does not pull encoding/json into the hot path).
func DecodeStatsResp(payload []byte) (*StatsResp, []byte, error) {
	r := &reader{b: payload}
	if k := r.u8("kind"); k != KindStatsResp && r.err == nil {
		return nil, nil, fmt.Errorf("wire: kind %d is not a StatsResp", k)
	}
	resp := &StatsResp{ID: r.u64("id"), Status: Status(r.u8("status"))}
	var body []byte
	if resp.Status == StatusOK {
		bl := int(r.u32("body length"))
		if r.err == nil && bl > MaxFramePayload {
			return nil, nil, fmt.Errorf("wire: stats body of %d bytes (max %d)", bl, MaxFramePayload)
		}
		body = r.bytes(bl, "body")
	} else {
		ml := int(r.u16("msg length"))
		resp.Msg = string(r.bytes(ml, "msg"))
	}
	if err := r.done("StatsResp"); err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}
