package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeFrame pins the codec's arbitrary-input contract: torn
// frames, corrupt length fields and CRC flips never panic, never
// allocate unboundedly, and never MISparse — any frame the decoder
// accepts must re-encode to the exact accepted bytes, and message
// payloads that decode must round-trip through their encoder. A decoded
// TxnResp also owns its data: nothing in it aliases the payload, and no
// result's Vals can be appended into its neighbour's.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with well-formed traffic so mutations explore the interesting
	// neighborhoods: a mixed TXN batch, responses of every status, stats.
	req, err := AppendTxnReq(nil, &TxnReq{
		ID:    7,
		Flags: FlagUpdate,
		Ops: []Op{
			{Code: OpGet, Key: "k0"},
			{Code: OpPut, Key: "k1", Vals: []uint64{1, 2, 3, 4}},
			{Code: OpAdd, Key: "k2", Delta: ^uint64(0)},
			{Code: OpCAS, Key: "k3", Expect: 5, New: 6},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(AppendFrame(nil, req))
	f.Add(AppendFrame(nil, AppendTxnResp(nil, &TxnResp{ID: 8, Status: StatusOK, Results: []Result{
		{Flag: true, Vals: []uint64{42}}, {Flag: false},
	}})))
	f.Add(AppendFrame(nil, AppendTxnResp(nil, &TxnResp{ID: 13, Status: StatusOK, Results: []Result{
		{Flag: true, Vals: []uint64{1, 2, 3}}, {Flag: true, Vals: []uint64{4, 5}}, {Flag: true}, {Vals: []uint64{6}},
	}})))
	f.Add(AppendFrame(nil, AppendTxnResp(nil, &TxnResp{ID: 9, Status: StatusMaxAttempts, Attempts: 3, Cause: 2})))
	f.Add(AppendFrame(nil, AppendTxnResp(nil, &TxnResp{ID: 10, Status: StatusNotDurable, Seq: 99})))
	f.Add(AppendFrame(nil, AppendStatsReq(nil, &StatsReq{ID: 11})))
	f.Add(AppendFrame(nil, AppendStatsResp(nil, 12, StatusOK, []byte(`{"Server":{}}`), "")))
	// Torn and corrupted variants.
	torn := AppendFrame(nil, req)
	f.Add(torn[:len(torn)-5])
	flipped := bytes.Clone(torn)
	flipped[FrameHeaderSize+2] ^= 0x40
	f.Add(flipped)
	badLen := bytes.Clone(torn)
	badLen[2] = 0xFF
	f.Add(badLen)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for depth := 0; depth < 64; depth++ {
			payload, next, err := DecodeFrame(rest)
			if err != nil {
				if errors.Is(err, ErrShortFrame) && len(rest) >= FrameHeaderSize+1+MaxFramePayload {
					t.Fatalf("ErrShortFrame on %d buffered bytes — decoder refused a decidable frame", len(rest))
				}
				return
			}
			// An accepted frame must re-encode bit-for-bit: the framing
			// layer cannot have normalized or misread anything.
			reenc := AppendFrame(nil, payload)
			if !bytes.Equal(reenc, rest[:len(rest)-len(next)]) {
				t.Fatalf("accepted frame does not re-encode to its input bytes")
			}
			fuzzPayload(t, payload)
			if len(next) >= len(rest) {
				t.Fatalf("decode made no progress")
			}
			rest = next
		}
	})
}

// fuzzPayload decodes payload as every message kind; whichever decode
// succeeds must round-trip through its encoder to the same bytes.
func fuzzPayload(t *testing.T, payload []byte) {
	if req, err := DecodeTxnReq(payload); err == nil {
		reenc, err := AppendTxnReq(nil, req)
		if err != nil {
			t.Fatalf("decoded TxnReq does not re-encode: %v", err)
		}
		if !bytes.Equal(reenc, payload) {
			t.Fatalf("TxnReq round trip changed bytes")
		}
	}
	// The client's reader reuses the payload buffer for the next frame
	// while the caller still holds the results, so nothing decoded may
	// alias it: decode a private copy and scribble over it.
	own := bytes.Clone(payload)
	if resp, err := DecodeTxnResp(own); err == nil {
		for i := range own {
			own[i] ^= 0xA5
		}
		if !bytes.Equal(AppendTxnResp(nil, &resp), payload) {
			t.Fatalf("TxnResp round trip changed bytes, or its results alias the payload")
		}
		// The results share one backing array: an append to one must
		// reallocate, not overwrite its neighbour.
		for i, res := range resp.Results {
			if cap(res.Vals) != len(res.Vals) {
				t.Fatalf("result %d: Vals has cap %d past len %d", i, cap(res.Vals), len(res.Vals))
			}
		}
	}
	if req, err := DecodeStatsReq(payload); err == nil {
		if !bytes.Equal(AppendStatsReq(nil, req), payload) {
			t.Fatalf("StatsReq round trip changed bytes")
		}
	}
	if resp, body, err := DecodeStatsResp(payload); err == nil {
		if !bytes.Equal(AppendStatsResp(nil, resp.ID, resp.Status, body, resp.Msg), payload) {
			t.Fatalf("StatsResp round trip changed bytes")
		}
	}
}
