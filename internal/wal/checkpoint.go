package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Checkpoint is a snapshot-consistent image of the transactional heap:
// everything recovery needs to rebuild the arena without replaying the
// whole log. Records with Seq <= LastSeq are fully reflected in Words
// (the checkpointing engine proves this by sampling the log's publish
// watermark BEFORE pinning the snapshot the image is taken at); recovery
// replays only the tail beyond it. Replaying records already in the image
// is harmless — commit records carry absolute values.
type Checkpoint struct {
	// LastSeq is the highest log sequence number the image covers.
	LastSeq uint64
	// Clock is the commit clock's reading at the snapshot; recovery
	// re-seeds the clock at least this far.
	Clock uint64
	// BlockShift is the arena's block geometry; a restart must be
	// configured compatibly, so it is validated on restore.
	BlockShift uint32
	// NextBlock is the arena's next-unassigned-block cursor.
	NextBlock uint64
	// Sites lists allocation-site names in SiteID order; restoring
	// re-registers them in the same order so the ids embedded in
	// BlockSite stay valid across the restart.
	Sites []string
	// BlockSite maps block -> owning SiteID for blocks [0, NextBlock).
	BlockSite []uint32
	// Words is the heap image for addresses [0, NextBlock<<BlockShift).
	Words []uint64
}

const (
	ckptMagic   = "WALCKPT1"
	ckptName    = "CHECKPOINT"
	ckptTmpName = "CHECKPOINT.tmp"
)

type crcWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
	buf [8]byte
}

func (c *crcWriter) u16(v uint16) error {
	binary.LittleEndian.PutUint16(c.buf[:2], v)
	return c.write(c.buf[:2])
}

func (c *crcWriter) u32(v uint32) error {
	binary.LittleEndian.PutUint32(c.buf[:4], v)
	return c.write(c.buf[:4])
}

func (c *crcWriter) u64(v uint64) error {
	binary.LittleEndian.PutUint64(c.buf[:8], v)
	return c.write(c.buf[:8])
}

func (c *crcWriter) write(p []byte) error {
	c.crc.Write(p) // hash.Hash never errors
	_, err := c.w.Write(p)
	return err
}

// WriteCheckpoint atomically replaces dir's checkpoint with cp: write to
// a temp file, fsync, rename over CHECKPOINT, fsync the directory. A
// crash at any point leaves either the old checkpoint or the new one,
// never a torn mix — the mid-checkpoint crash point dies with only the
// temp file written, which recovery ignores.
func WriteCheckpoint(dir string, cp *Checkpoint) error {
	if uint64(len(cp.BlockSite)) != cp.NextBlock {
		return fmt.Errorf("wal: checkpoint block table has %d entries for %d blocks", len(cp.BlockSite), cp.NextBlock)
	}
	if uint64(len(cp.Words)) != cp.NextBlock<<cp.BlockShift {
		return fmt.Errorf("wal: checkpoint image has %d words for %d blocks of 2^%d", len(cp.Words), cp.NextBlock, cp.BlockShift)
	}
	tmp := filepath.Join(dir, ckptTmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := &crcWriter{w: bufio.NewWriterSize(f, 1<<16), crc: crc32.New(castagnoli)}
	err = func() error {
		if _, err := w.w.WriteString(ckptMagic); err != nil {
			return err
		}
		if err := w.u64(cp.LastSeq); err != nil {
			return err
		}
		if err := w.u64(cp.Clock); err != nil {
			return err
		}
		if err := w.u32(cp.BlockShift); err != nil {
			return err
		}
		if err := w.u64(cp.NextBlock); err != nil {
			return err
		}
		if err := w.u32(uint32(len(cp.Sites))); err != nil {
			return err
		}
		for _, name := range cp.Sites {
			if err := w.u16(uint16(len(name))); err != nil {
				return err
			}
			if err := w.write([]byte(name)); err != nil {
				return err
			}
		}
		for _, sid := range cp.BlockSite {
			if err := w.u32(sid); err != nil {
				return err
			}
		}
		for i, word := range cp.Words {
			if i == len(cp.Words)/2 {
				// Half the image on disk, rename still pending: the
				// canonical torn-checkpoint state.
				if hit(CrashMidCheckpoint) {
					w.w.Flush()
					kill()
				}
			}
			if err := w.u64(word); err != nil {
				return err
			}
		}
		// Trailing CRC32C over everything after the magic; not fed back
		// into the hash.
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], w.crc.Sum32())
		if _, err := w.w.Write(tail[:]); err != nil {
			return err
		}
		if err := w.w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ckptName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// ReadCheckpoint loads dir's checkpoint, or returns (nil, nil) when none
// exists. A leftover temp file from a crash mid-checkpoint is removed. A
// CHECKPOINT that fails validation is an error: the atomic write protocol
// never produces one, so it signals real corruption.
func ReadCheckpoint(dir string) (*Checkpoint, error) {
	os.Remove(filepath.Join(dir, ckptTmpName)) // crash leftover, never valid
	data, err := os.ReadFile(filepath.Join(dir, ckptName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("wal: checkpoint magic missing")
	}
	body := data[len(ckptMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	r := ckptReader{data: body}
	cp := &Checkpoint{}
	cp.LastSeq = r.u64()
	cp.Clock = r.u64()
	cp.BlockShift = r.u32()
	cp.NextBlock = r.u64()
	nSites := int(r.u32())
	if r.err == nil && nSites > len(body) { // implausible, pre-allocation guard
		return nil, fmt.Errorf("wal: checkpoint claims %d sites", nSites)
	}
	for i := 0; i < nSites && r.err == nil; i++ {
		cp.Sites = append(cp.Sites, r.str())
	}
	if r.err == nil {
		cp.BlockSite = make([]uint32, cp.NextBlock)
		for i := range cp.BlockSite {
			cp.BlockSite[i] = r.u32()
		}
		cp.Words = make([]uint64, cp.NextBlock<<cp.BlockShift)
		for i := range cp.Words {
			cp.Words[i] = r.u64()
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("wal: checkpoint decode: %w", r.err)
	}
	if len(r.data) != r.off {
		return nil, fmt.Errorf("wal: checkpoint has %d trailing bytes", len(r.data)-r.off)
	}
	return cp, nil
}

type ckptReader struct {
	data []byte
	off  int
	err  error
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data)-r.off < n {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *ckptReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *ckptReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *ckptReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *ckptReader) str() string {
	n := int(r.u16())
	if b := r.take(n); b != nil {
		return string(b)
	}
	return ""
}
