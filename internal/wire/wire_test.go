package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
)

func frameOf(t *testing.T, payload []byte) []byte {
	t.Helper()
	return AppendFrame(nil, payload)
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{1},
		[]byte("hello frame"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var stream []byte
	for _, p := range payloads {
		stream = AppendFrame(stream, p)
	}
	rest := stream
	for i, want := range payloads {
		var got []byte
		var err error
		got, rest, err = DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestFrameShortAndCorrupt(t *testing.T) {
	full := frameOf(t, []byte("payload-bytes"))
	// Every strict prefix is ErrShortFrame, never a hard error or panic.
	for n := 0; n < len(full); n++ {
		if _, _, err := DecodeFrame(full[:n]); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("prefix %d: err = %v, want ErrShortFrame", n, err)
		}
	}
	// Any single bit flip in the payload is a checksum mismatch.
	for bit := 0; bit < 8; bit++ {
		bad := bytes.Clone(full)
		bad[FrameHeaderSize+3] ^= 1 << bit
		if _, _, err := DecodeFrame(bad); err == nil || errors.Is(err, ErrShortFrame) {
			t.Fatalf("payload bit flip %d: err = %v, want checksum error", bit, err)
		}
	}
	// A zero or giant length field is rejected before any allocation.
	zero := bytes.Clone(full)
	zero[0], zero[1], zero[2], zero[3] = 0, 0, 0, 0
	if _, _, err := DecodeFrame(zero); err == nil || errors.Is(err, ErrShortFrame) {
		t.Fatalf("zero length: err = %v, want hard error", err)
	}
	giant := bytes.Clone(full)
	giant[3] = 0xFF
	if _, _, err := DecodeFrame(giant); err == nil || errors.Is(err, ErrShortFrame) {
		t.Fatalf("giant length: err = %v, want hard error", err)
	}
}

func TestReadFrame(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, []byte("first"))
	stream = AppendFrame(stream, []byte("second-longer-payload"))
	r := bytes.NewReader(stream)
	var buf []byte
	p1, buf, err := ReadFrame(r, buf)
	if err != nil || string(p1) != "first" {
		t.Fatalf("frame 1: %q, %v", p1, err)
	}
	p2, buf, err := ReadFrame(r, buf)
	if err != nil || string(p2) != "second-longer-payload" {
		t.Fatalf("frame 2: %q, %v", p2, err)
	}
	if _, _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("clean end: err = %v, want io.EOF", err)
	}
	// A stream dying mid-frame is ErrUnexpectedEOF, not a clean EOF.
	if _, _, err := ReadFrame(bytes.NewReader(stream[:len(stream)-3]), nil); len(stream) > 3 {
		// first frame still decodes; only the second is torn
		_ = err
	}
	r2 := bytes.NewReader(stream[:len(stream)-3])
	if _, buf2, err := ReadFrame(r2, nil); err != nil {
		t.Fatalf("torn stream frame 1: %v", err)
	} else if _, _, err := ReadFrame(r2, buf2); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn stream frame 2: err = %v, want ErrUnexpectedEOF", err)
	}
}

func sampleTxnReq() *TxnReq {
	return &TxnReq{
		ID:    0xDEADBEEF01,
		Flags: FlagUpdate,
		Ops: []Op{
			{Code: OpGet, Key: "alpha"},
			{Code: OpPut, Key: "beta", Vals: []uint64{1, 2, 3}},
			{Code: OpAdd, Key: "gamma", Delta: ^uint64(0)}, // -1
			{Code: OpCAS, Key: "delta", Expect: 7, New: 9},
		},
	}
}

func TestTxnReqRoundTrip(t *testing.T) {
	want := sampleTxnReq()
	buf, err := AppendTxnReq(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if Kind(buf) != KindTxnReq {
		t.Fatalf("kind = %d", Kind(buf))
	}
	got, err := DecodeTxnReq(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.ReadOnly() {
		t.Fatal("mixed batch reported read-only")
	}
	ro := &TxnReq{ID: 1, Ops: []Op{{Code: OpGet, Key: "a"}, {Code: OpGet, Key: "b"}}}
	if !ro.ReadOnly() {
		t.Fatal("all-GET batch not read-only")
	}
}

func TestTxnRespRoundTrip(t *testing.T) {
	cases := []*TxnResp{
		{ID: 1, Status: StatusOK, Results: []Result{
			{Flag: true, Vals: []uint64{10, 20}},
			{Flag: false},
			{Flag: true, Vals: []uint64{5}},
		}},
		{ID: 2, Status: StatusMaxAttempts, Attempts: 17, Cause: core.AbortLockedOnWrite},
		{ID: 3, Status: StatusNotDurable, Seq: 12345},
		{ID: 4, Status: StatusBadRequest, Msg: "op 2 PUT with 0 vals"},
		{ID: 5, Status: StatusClosing, Msg: "server shutting down"},
	}
	for _, want := range cases {
		buf := AppendTxnResp(nil, want)
		got, err := DecodeTxnResp(buf)
		if err != nil {
			t.Fatalf("%v: %v", want.Status, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	req := &StatsReq{ID: 42}
	buf := AppendStatsReq(nil, req)
	got, err := DecodeStatsReq(buf)
	if err != nil || got.ID != 42 {
		t.Fatalf("stats req: %+v, %v", got, err)
	}
	payload := &StatsPayload{Server: ServerStats{Conns: 3, Txns: 99, Keys: 7}}
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	rbuf := AppendStatsResp(nil, 42, StatusOK, body, "")
	resp, rawBody, err := DecodeStatsResp(rbuf)
	if err != nil || resp.ID != 42 || resp.Status != StatusOK {
		t.Fatalf("stats resp: %+v, %v", resp, err)
	}
	var back StatsPayload
	if err := json.Unmarshal(rawBody, &back); err != nil {
		t.Fatal(err)
	}
	if back.Server != payload.Server {
		t.Fatalf("stats payload mismatch: %+v", back.Server)
	}
	// Error form.
	ebuf := AppendStatsResp(nil, 43, StatusInternal, nil, "boom")
	eresp, _, err := DecodeStatsResp(ebuf)
	if err != nil || eresp.Status != StatusInternal || eresp.Msg != "boom" {
		t.Fatalf("stats error resp: %+v, %v", eresp, err)
	}
}

// TestDecodeRejectsTrailingGarbage: extra bytes after a message are a
// protocol error, not silently ignored.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	buf, err := AppendTxnReq(nil, sampleTxnReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTxnReq(append(buf, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	rbuf := AppendTxnResp(nil, &TxnResp{ID: 9, Status: StatusOK})
	if _, err := DecodeTxnResp(append(rbuf, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestDecodeBounds: oversized counts embedded in otherwise well-formed
// messages are rejected by the named bounds, not by allocation failure.
func TestDecodeBounds(t *testing.T) {
	req := &TxnReq{ID: 1, Ops: []Op{{Code: OpGet, Key: string(make([]byte, MaxKeyLen+1))}}}
	if _, err := AppendTxnReq(nil, req); err == nil {
		t.Fatal("oversized key encoded")
	}
	big := &TxnReq{ID: 1, Ops: make([]Op, MaxOpsPerTxn+1)}
	for i := range big.Ops {
		big.Ops[i] = Op{Code: OpGet, Key: "k"}
	}
	if _, err := AppendTxnReq(nil, big); err == nil {
		t.Fatal("oversized batch encoded")
	}
	vals := &TxnReq{ID: 1, Ops: []Op{{Code: OpPut, Key: "k", Vals: make([]uint64, MaxArity+1)}}}
	if _, err := AppendTxnReq(nil, vals); err == nil {
		t.Fatal("oversized value vector encoded")
	}
}
