package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame transport: len uint32 | crc uint32 (CRC32C over payload) |
// payload. See the package comment for the trust model — a bad frame
// breaks the connection, it is never resynchronized.

const (
	// FrameHeaderSize is the fixed per-frame overhead in bytes.
	FrameHeaderSize = 4 + 4
	// MaxFramePayload bounds the length field so a corrupt or hostile
	// frame cannot provoke a giant allocation (same guard as the WAL's
	// recovery path).
	MaxFramePayload = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrShortFrame reports a frame whose bytes have not fully arrived yet —
// the one decode failure that is NOT a protocol error on a stream (more
// bytes may be in flight). Stream readers should use ReadFrame, which
// blocks instead; DecodeFrame exists for tests and fuzzing over byte
// slices.
var ErrShortFrame = errors.New("wire: incomplete frame")

// AppendFrame wraps payload in a frame header and appends the whole
// frame to buf.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// DecodeFrame decodes one frame from the front of data, returning its
// payload (aliasing data) and the remaining bytes. A frame that has not
// fully arrived is ErrShortFrame; an implausible length or a checksum
// mismatch is a hard protocol error.
func DecodeFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < FrameHeaderSize {
		return nil, data, ErrShortFrame
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n == 0 || n > MaxFramePayload {
		return nil, data, fmt.Errorf("wire: implausible frame length %d", n)
	}
	if len(data)-FrameHeaderSize < n {
		return nil, data, ErrShortFrame
	}
	payload = data[FrameHeaderSize : FrameHeaderSize+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, data, fmt.Errorf("wire: frame checksum mismatch")
	}
	return payload, data[FrameHeaderSize+n:], nil
}

// ReadFrame reads one complete frame from r into buf (grown as needed)
// and returns the payload, which aliases buf. io.EOF surfaces unwrapped
// only on a clean frame boundary; a connection dying mid-frame is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) (payload, newBuf []byte, err error) {
	// The header is read into the front of buf and overwritten by the
	// payload: a local array would escape through io.ReadFull's interface
	// argument and cost one allocation per frame.
	if cap(buf) < FrameHeaderSize {
		buf = make([]byte, FrameHeaderSize, 512)
	}
	buf = buf[:FrameHeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(buf))
	sum := binary.LittleEndian.Uint32(buf[4:])
	if n == 0 || n > MaxFramePayload {
		return nil, buf, fmt.Errorf("wire: implausible frame length %d", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return nil, buf, fmt.Errorf("wire: frame checksum mismatch")
	}
	return buf, buf, nil
}
