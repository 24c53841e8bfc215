package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Log format. A log is a directory of rotating segment files
// (wal-<%016x startSeq>.seg) plus at most one CHECKPOINT file
// (checkpoint.go). Every segment starts with a fixed header
//
//	magic  [8]byte "WALSEG01"
//	start  uint64  sequence number of the segment's first record
//	crc    uint32  CRC32C over magic+start
//
// followed by length-prefixed frames, one per record:
//
//	len    uint32  payload length in bytes
//	crc    uint32  CRC32C over the payload
//	payload
//
// The payload begins with a kind byte and the record's sequence number;
// sequence numbers are assigned contiguously at publish time (under the
// committing transaction's write locks), so file order is commit order
// and any prefix of the log is a causally consistent cut. Recovery
// validates every frame; a failed length or checksum in the LAST segment
// is a torn tail from a crash mid-write and is truncated away, anywhere
// else it is corruption and recovery fails loudly.
//
//	kind 1 (commit): ver uint64, n uint32, n × (addr uint64, val uint64)
//	kind 2 (grab):   firstBlock uint64, blocks uint64,
//	                 nameLen uint16, name []byte
//
// Commit records carry absolute post-images, so replay in sequence order
// is idempotent: replaying any suffix twice, or replaying records already
// reflected in a checkpoint image, rewrites the same final values.
// Grab records journal arena block-range assignments (block→site, bump of
// the next-free-block cursor) so that replayed commit records land in
// blocks the restarted allocator will never hand out again.
const (
	segMagic      = "WALSEG01"
	segHeaderSize = 8 + 8 + 4

	frameHeaderSize = 4 + 4
	// maxFramePayload bounds the length field so a corrupt frame cannot
	// provoke a giant allocation during recovery.
	maxFramePayload = 1 << 26

	// KindCommit is a committed transaction's redo record.
	KindCommit = 1
	// KindGrab is an arena block-range assignment record.
	KindGrab = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Op is one word write of a commit record: the address and the absolute
// new value.
type Op struct {
	Addr uint64
	Val  uint64
}

// Record is one decoded log record, as handed to Replay callbacks.
type Record struct {
	// Seq is the record's log sequence number.
	Seq uint64
	// Kind is KindCommit or KindGrab.
	Kind uint8

	// Ver is the commit's write version (KindCommit); recovery re-seeds
	// the commit clock past the largest one replayed.
	Ver uint64
	// Ops are the commit's word writes (KindCommit).
	Ops []Op

	// FirstBlock and Blocks describe the assigned block range (KindGrab).
	FirstBlock uint64
	Blocks     uint64
	// Site is the owning allocation site's name (KindGrab) — names, not
	// ids, because site ids are assigned in registration order, which a
	// restart replays from the checkpoint's site list plus these records.
	Site string
}

func segName(startSeq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", startSeq)
}

func appendSegHeader(buf []byte, startSeq uint64) []byte {
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, startSeq)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(buf)-16:], castagnoli))
}

// parseSegHeader validates a segment header and returns its start
// sequence number.
func parseSegHeader(hdr []byte) (uint64, error) {
	if len(hdr) < segHeaderSize {
		return 0, fmt.Errorf("wal: short segment header (%d bytes)", len(hdr))
	}
	if string(hdr[:8]) != segMagic {
		return 0, fmt.Errorf("wal: bad segment magic %q", hdr[:8])
	}
	if crc32.Checksum(hdr[:16], castagnoli) != binary.LittleEndian.Uint32(hdr[16:20]) {
		return 0, fmt.Errorf("wal: segment header checksum mismatch")
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}

// appendFrame wraps payload (buf[payloadStart:]) in the length+checksum
// frame header. Callers append the header placeholder first via
// beginFrame and call endFrame with the payload start.
func beginFrame(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

func endFrame(buf []byte, frameStart int) []byte {
	payload := buf[frameStart+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[frameStart:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[frameStart+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

func appendCommitFrame(buf []byte, seq, ver uint64, ops []Op) []byte {
	start := len(buf)
	buf = beginFrame(buf)
	buf = append(buf, KindCommit)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, ver)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ops)))
	for _, op := range ops {
		buf = binary.LittleEndian.AppendUint64(buf, op.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, op.Val)
	}
	return endFrame(buf, start)
}

func appendGrabFrame(buf []byte, seq, firstBlock, blocks uint64, site string) []byte {
	start := len(buf)
	buf = beginFrame(buf)
	buf = append(buf, KindGrab)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, firstBlock)
	buf = binary.LittleEndian.AppendUint64(buf, blocks)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(site)))
	buf = append(buf, site...)
	return endFrame(buf, start)
}

// decodePayload decodes one validated frame payload into rec. ops is a
// reusable scratch slice for commit records.
func decodePayload(payload []byte, ops []Op) (Record, error) {
	var rec Record
	if len(payload) < 9 {
		return rec, fmt.Errorf("wal: frame payload too short (%d bytes)", len(payload))
	}
	rec.Kind = payload[0]
	rec.Seq = binary.LittleEndian.Uint64(payload[1:9])
	body := payload[9:]
	switch rec.Kind {
	case KindCommit:
		if len(body) < 12 {
			return rec, fmt.Errorf("wal: truncated commit record")
		}
		rec.Ver = binary.LittleEndian.Uint64(body[:8])
		n := int(binary.LittleEndian.Uint32(body[8:12]))
		body = body[12:]
		if len(body) != n*16 {
			return rec, fmt.Errorf("wal: commit record claims %d ops, has %d bytes", n, len(body))
		}
		ops = ops[:0]
		for i := 0; i < n; i++ {
			ops = append(ops, Op{
				Addr: binary.LittleEndian.Uint64(body[i*16:]),
				Val:  binary.LittleEndian.Uint64(body[i*16+8:]),
			})
		}
		rec.Ops = ops
	case KindGrab:
		if len(body) < 18 {
			return rec, fmt.Errorf("wal: truncated grab record")
		}
		rec.FirstBlock = binary.LittleEndian.Uint64(body[:8])
		rec.Blocks = binary.LittleEndian.Uint64(body[8:16])
		nl := int(binary.LittleEndian.Uint16(body[16:18]))
		if len(body) != 18+nl {
			return rec, fmt.Errorf("wal: grab record name length mismatch")
		}
		rec.Site = string(body[18 : 18+nl])
	default:
		return rec, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	return rec, nil
}

// segmentInfo is one on-disk segment.
type segmentInfo struct {
	path     string
	startSeq uint64
}

// scanSegments lists dir's segment files ordered by start sequence.
func scanSegments(dir string) ([]segmentInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		start, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unparsable segment name %q", name)
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), startSeq: start})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].startSeq < segs[j].startSeq })
	return segs, nil
}

// walkFrames reads a segment's frames from data (everything after the
// header), calling fn per validated frame payload. zeros is how many zero
// bytes follow data in the file (readSegment cut them off): a frame may
// end in zero bytes of its own, so a frame is read as far into them as its
// length says, and the zeros no frame claims are preallocated space no
// write reached, not a tear. It returns the number of valid bytes consumed
// (where the file is to be cut) and, when the bytes after them failed
// validation, a description of the tear; err is non-nil for I/O-level
// problems and when the failed tail is provably mid-log corruption rather
// than a tear.
func walkFrames(data []byte, zeros int64, fn func(payload []byte) error) (valid int, torn string, err error) {
	written := len(data)
	// have reports whether the file holds n bytes at off, taking them from
	// the zeros behind the written bytes if it must.
	have := func(off, n int) bool {
		short := off + n - len(data)
		if short > 0 && int64(short) <= zeros {
			data = append(data, make([]byte, short)...)
			zeros -= int64(short)
		}
		return off+n <= len(data)
	}
	// frameAt returns the payload of the frame at off, or why there is none.
	frameAt := func(off int) (payload []byte, reason string) {
		if !have(off, frameHeaderSize) {
			return nil, "short frame header"
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > maxFramePayload {
			return nil, "implausible frame length"
		}
		if !have(off, frameHeaderSize+n) {
			return nil, "short frame payload"
		}
		payload = data[off+frameHeaderSize : off+frameHeaderSize+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			return nil, "frame checksum mismatch"
		}
		return payload, ""
	}
	off := 0
	for off < written {
		payload, reason := frameAt(off)
		if reason != "" {
			// A torn group write leaves only trailing garbage: nothing
			// after a half-written frame can be a completed write. So an
			// invalid frame FOLLOWED by a complete one — plausible length,
			// matching CRC32C, decodable payload — is mid-log corruption
			// (bit rot, external damage, or blocks of one group that a
			// power loss persisted out of order): refuse to repair rather
			// than silently drop committed records. The search is
			// byte-granular: the corrupt frame's own length field may be
			// the damaged bytes, so it cannot be trusted to locate the
			// next frame boundary. Length fields are mostly implausible in
			// garbage, so the CRC is computed rarely, and with the decode
			// it makes an accidental match vanishingly unlikely.
			for next := off + 1; next < written; next++ {
				if p, r := frameAt(next); r == "" {
					if _, err := decodePayload(p, nil); err == nil {
						return off, "", fmt.Errorf("wal: invalid frame at offset %d (%s) is followed by valid frames — mid-log corruption, not a torn tail", off, reason)
					}
				}
			}
			return off, reason, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, "", err
			}
		}
		off += frameHeaderSize + len(payload)
	}
	return off, "", nil
}

// readSegment reads a segment file up to its last non-zero byte and
// reports how many zero bytes follow it. A crashed log's final segment is
// mostly such zeros — the preallocated space no write reached — so they
// are found from the end, a chunk at a time, and never loaded or walked.
func readSegment(path string) (data []byte, zeros int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	end := st.Size()
	chunk := make([]byte, 256<<10)
	for end > 0 {
		c := chunk[:min(int64(len(chunk)), end)]
		if _, err := f.ReadAt(c, end-int64(len(c))); err != nil {
			return nil, 0, err
		}
		n := len(c)
		for n >= 8 && binary.LittleEndian.Uint64(c[n-8:]) == 0 {
			n -= 8
		}
		for n > 0 && c[n-1] == 0 {
			n--
		}
		end -= int64(len(c) - n)
		if n > 0 {
			break
		}
	}
	// The header's checksum may itself end in zero bytes.
	end = max(end, min(st.Size(), segHeaderSize))
	data = make([]byte, end)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, 0, err
	}
	return data, st.Size() - end, nil
}

// RecoveryInfo summarizes what Open found and repaired.
type RecoveryInfo struct {
	// Segments is the number of valid segment files kept: a segment the
	// checkpoint floor wholly covers is removed and not counted.
	Segments int
	// Records is the number of validated records across the kept segments.
	Records uint64
	// LastSeq is the highest durable sequence number recovered (0 when
	// the log is empty and no checkpoint floor was given).
	LastSeq uint64
	// CheckpointSeq is the checkpoint floor passed to Open (records at or
	// below it are already reflected in the checkpoint image).
	CheckpointSeq uint64
	// TornBytes counts bytes truncated off the final segment's tail; a
	// nonzero value means the process died mid-append and recovery
	// repaired the tear. TornReason describes the failed validation.
	TornBytes  int64
	TornReason string
	// DroppedSegments counts invalid trailing segments removed whole (a
	// crash can die inside the segment header write of a fresh segment).
	DroppedSegments int
}

// recoverSegments validates dir's segments, truncates a torn tail, and
// returns the surviving segments plus the recovery summary. floor is the
// checkpoint's last covered sequence (0 without a checkpoint).
func recoverSegments(dir string, floor uint64) ([]segmentInfo, *RecoveryInfo, error) {
	segs, err := scanSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{CheckpointSeq: floor, LastSeq: floor}
	out := segs[:0]
	var lastRecs uint64 // record count of the newest surviving segment
	for i, seg := range segs {
		last := i == len(segs)-1
		data, zeros, err := readSegment(seg.path)
		if err != nil {
			return nil, nil, err
		}
		start, err := parseSegHeader(data)
		if err != nil || start != seg.startSeq {
			if err == nil {
				err = fmt.Errorf("wal: segment %s header start %d does not match name", seg.path, start)
			}
			if last {
				// A crash inside the header write of a freshly rotated
				// segment: nothing in it can be valid, drop it whole.
				if rmErr := os.Remove(seg.path); rmErr != nil {
					return nil, nil, rmErr
				}
				info.DroppedSegments++
				info.TornReason = err.Error()
				break
			}
			return nil, nil, err
		}
		// LastSeq never drops below the floor, so the first segment past
		// the floor must start at or before floor+1, and every later one
		// right after its predecessor's last record.
		if want := info.LastSeq + 1; start > want || len(out) > 0 && start != want {
			return nil, nil, fmt.Errorf("wal: segment %s starts at seq %d, want %d (gap)", seg.path, start, want)
		}
		expect := start
		valid, torn, err := walkFrames(data[segHeaderSize:], zeros, func(payload []byte) error {
			rec, err := decodePayload(payload, nil)
			if err != nil {
				return err
			}
			if rec.Seq != expect {
				return fmt.Errorf("wal: segment %s carries seq %d, want %d", seg.path, rec.Seq, expect)
			}
			expect++
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if torn != "" {
			if !last {
				return nil, nil, fmt.Errorf("wal: segment %s corrupt mid-log (%s); only the final segment may be torn", seg.path, torn)
			}
			info.TornBytes = int64(len(data) - (segHeaderSize + valid))
			info.TornReason = torn
		}
		// Cut the file to its records: a torn tail's garbage, and the
		// preallocated zeros a crash (no graceful seal) left behind.
		if keep := int64(segHeaderSize + valid); keep < int64(len(data))+zeros {
			if err := os.Truncate(seg.path, keep); err != nil {
				return nil, nil, err
			}
		}
		if expect <= floor+1 {
			// Every record is at or below the floor: the checkpoint
			// covers the segment, so it goes, as TruncateBefore would
			// have removed it (an empty segment at 1 goes with floor 0,
			// as the empty tail below would).
			if err := os.Remove(seg.path); err != nil {
				return nil, nil, err
			}
			continue
		}
		info.Records += expect - start
		info.LastSeq = max(info.LastSeq, expect-1)
		lastRecs = expect - start
		out = append(out, seg)
	}
	// A valid but zero-record tail segment (graceful close with no
	// traffic, or a crash right after rotation) is deleted rather than
	// kept: Open recreates the active segment at LastSeq+1 — this
	// segment's own name — and keeping the recovered entry too would put
	// two entries for one path in the segment list, letting a later
	// checkpoint's TruncateBefore count the duplicate as fully covered
	// and unlink the file the flusher is actively writing. Only the tail
	// can be empty: the start-sequence gap check above makes any two
	// consecutive empty segments collide on the same name.
	if n := len(out); n > 0 && lastRecs == 0 {
		if err := os.Remove(out[n-1].path); err != nil {
			return nil, nil, err
		}
		out = out[:n-1]
	}
	info.Segments = len(out)
	return out, info, nil
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	Records uint64
	Commits uint64
	Grabs   uint64
	Ops     uint64
	// MaxVer is the highest commit version replayed; the recovering
	// engine advances its clock at least this far so post-restart commits
	// version strictly after every recovered one.
	MaxVer uint64
}

// replaySegments re-reads the given (already validated) segments in
// order, invoking fn for every record with Seq > fromSeq.
func replaySegments(segs []segmentInfo, fromSeq uint64, fn func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	var ops []Op
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return st, err
		}
		if len(data) < segHeaderSize {
			return st, fmt.Errorf("wal: segment %s shrank below its header", seg.path)
		}
		_, torn, err := walkFrames(data[segHeaderSize:], 0, func(payload []byte) error {
			rec, err := decodePayload(payload, ops[:0])
			if err != nil {
				return err
			}
			if cap(rec.Ops) > cap(ops) {
				ops = rec.Ops
			}
			if rec.Seq <= fromSeq {
				return nil
			}
			st.Records++
			switch rec.Kind {
			case KindCommit:
				st.Commits++
				st.Ops += uint64(len(rec.Ops))
				if rec.Ver > st.MaxVer {
					st.MaxVer = rec.Ver
				}
			case KindGrab:
				st.Grabs++
			}
			return fn(rec)
		})
		if err != nil {
			return st, err
		}
		if torn != "" {
			return st, fmt.Errorf("wal: segment %s torn during replay (%s)", seg.path, torn)
		}
	}
	return st, nil
}

// syncDir fsyncs a directory so renames and unlinks inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
