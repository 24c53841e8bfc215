package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) (*Log, *RecoveryInfo) {
	t.Helper()
	l, info, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, info
}

func publishN(t *testing.T, l *Log, from, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		seq := l.PublishCommit(from+i, []Op{{Addr: from + i, Val: (from + i) * 10}})
		if seq != from+i {
			t.Fatalf("PublishCommit returned seq %d, want %d", seq, from+i)
		}
	}
}

func collect(t *testing.T, dir string, fromSeq uint64) []Record {
	t.Helper()
	l, _ := openTest(t, dir, Options{StartSeq: fromSeq})
	defer l.Abandon()
	var recs []Record
	_, err := l.Replay(fromSeq, func(r Record) error {
		r.Ops = append([]Op(nil), r.Ops...)
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, info := openTest(t, dir, Options{})
	if info.Records != 0 || info.LastSeq != 0 {
		t.Fatalf("fresh dir recovered %+v", info)
	}
	publishN(t, l, 1, 100)
	if seq := l.PublishGrab(3, 2, "app.site"); seq != 101 {
		t.Fatalf("PublishGrab seq = %d, want 101", seq)
	}
	if !l.WaitDurable(101) {
		t.Fatal("WaitDurable(101) = false")
	}
	if d := l.DurableSeq(); d < 101 {
		t.Fatalf("DurableSeq = %d after WaitDurable(101)", d)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs := collect(t, dir, 0)
	if len(recs) != 101 {
		t.Fatalf("recovered %d records, want 101", len(recs))
	}
	for i, r := range recs[:100] {
		want := uint64(i + 1)
		if r.Seq != want || r.Kind != KindCommit || r.Ver != want ||
			len(r.Ops) != 1 || r.Ops[0].Addr != want || r.Ops[0].Val != want*10 {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	g := recs[100]
	if g.Kind != KindGrab || g.FirstBlock != 3 || g.Blocks != 2 || g.Site != "app.site" {
		t.Fatalf("grab record = %+v", g)
	}
}

func TestAbandonLosesNothingAcked(t *testing.T) {
	// Abandon simulates a crash: whatever WaitDurable acknowledged must
	// still recover; unacked tail records may or may not survive.
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{GroupCommitInterval: time.Millisecond})
	publishN(t, l, 1, 50)
	if !l.WaitDurable(50) {
		t.Fatal("WaitDurable(50) = false")
	}
	publishN(t, l, 51, 10) // unacked; no flush guaranteed
	l.Abandon()
	recs := collect(t, dir, 0)
	if len(recs) < 50 {
		t.Fatalf("recovered %d records, acked 50", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: recovery must be a gap-free prefix", i, r.Seq)
		}
	}
}

func TestRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation; publish in acked batches so each
	// flush group lands (and rotates) separately.
	l, _ := openTest(t, dir, Options{SegmentBytes: 256})
	for batch := uint64(0); batch < 20; batch++ {
		publishN(t, l, batch*10+1, 10)
		if !l.WaitDurable(batch*10 + 10) {
			t.Fatalf("WaitDurable(batch %d) = false", batch)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatalf("no rotations with 256-byte segments: %+v", st)
	}
	segsBefore, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segsBefore) < 4 {
		t.Fatalf("got %d segments (%v), want several", len(segsBefore), err)
	}
	if err := l.TruncateBefore(100); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("truncation kept %d of %d segments", len(segsAfter), len(segsBefore))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Everything past the truncation floor must still replay contiguously.
	recs := collect(t, dir, 100)
	if len(recs) != 100 {
		t.Fatalf("recovered %d records past seq 100, want 100", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(101+i) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, 101+i)
		}
	}
}

func TestRecoveryResumesPublishing(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, info := openTest(t, dir, Options{})
	if info.LastSeq != 10 {
		t.Fatalf("recovered LastSeq = %d, want 10", info.LastSeq)
	}
	if seq := l2.PublishCommit(11, []Op{{Addr: 1, Val: 1}}); seq != 11 {
		t.Fatalf("post-recovery publish got seq %d, want 11", seq)
	}
	if !l2.WaitDurable(11) {
		t.Fatal("WaitDurable after recovery failed")
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, dir, 0); len(recs) != 11 {
		t.Fatalf("recovered %d records, want 11", len(recs))
	}
}

// TestTornTailEveryOffset is the satellite-3 table test: truncate the
// final segment at EVERY byte offset inside the last record and verify
// recovery repairs the tear to exactly the preceding records — never an
// error, never a phantom record.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, 3)
	if !l.WaitDurable(3) {
		t.Fatal("WaitDurable(3) = false")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Find where record 3 starts: walk the two leading frames.
	off := segHeaderSize
	for i := 0; i < 2; i++ {
		n := int(binary.LittleEndian.Uint32(full[off:]))
		off += frameHeaderSize + n
	}
	if off >= len(full) {
		t.Fatalf("frame walk overran: off %d of %d", off, len(full))
	}

	for cut := off; cut < len(full); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			sub := t.TempDir()
			path := filepath.Join(sub, filepath.Base(segs[0]))
			if err := os.WriteFile(path, full[:cut], 0o666); err != nil {
				t.Fatal(err)
			}
			l2, info, err := Open(sub, Options{})
			if err != nil {
				t.Fatalf("Open on torn tail: %v", err)
			}
			defer l2.Abandon()
			if info.LastSeq != 2 {
				t.Fatalf("LastSeq = %d, want 2 (record 3 torn)", info.LastSeq)
			}
			// cut == off is a clean end exactly at the record boundary —
			// nothing to repair; every cut inside the record is a tear.
			if cut > off && info.TornBytes == 0 {
				t.Fatal("TornBytes = 0, tear not reported")
			}
			var seqs []uint64
			if _, err := l2.Replay(0, func(r Record) error {
				seqs = append(seqs, r.Seq)
				return nil
			}); err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
				t.Fatalf("replayed seqs %v, want [1 2]", seqs)
			}
			// The repaired log must accept new records at seq 3.
			if seq := l2.PublishCommit(9, []Op{{Addr: 9, Val: 9}}); seq != 3 {
				t.Fatalf("post-repair publish seq = %d, want 3", seq)
			}
			if !l2.WaitDurable(3) {
				t.Fatal("post-repair WaitDurable failed")
			}
		})
	}
}

// TestReopenEmptyLogThenTruncate is the duplicate-active-segment
// regression: reopening a log whose newest segment holds zero records
// (graceful close with no traffic) must not leave two segment-list
// entries for one path — otherwise the first checkpoint's TruncateBefore
// counts the duplicate as fully covered, unlinks the file the flusher is
// actively writing, and every later record (Sync-acked included) dies
// with it on the next restart.
func TestReopenEmptyLogThenTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _ := openTest(t, dir, Options{})
	publishN(t, l2, 1, 3)
	if !l2.WaitDurable(3) {
		t.Fatal("WaitDurable(3) = false")
	}
	if err := l2.TruncateBefore(0); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) != 1 {
		t.Fatalf("got %d segment files after TruncateBefore, want 1 (active segment removed?)", len(segs))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, dir, 0)
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
}

// TestReopenReusesEmptyTailSegment: repeated crash/reopen cycles with no
// traffic in between must not accumulate (or duplicate) empty tail
// segments — each reopen drops the previous empty active segment and
// recreates it under the same name.
func TestReopenReusesEmptyTailSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, 5)
	if !l.WaitDurable(5) {
		t.Fatal("WaitDurable(5) = false")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l2, info := openTest(t, dir, Options{})
		if info.LastSeq != 5 {
			t.Fatalf("reopen %d: LastSeq = %d, want 5", i, info.LastSeq)
		}
		l2.Abandon()
	}
	// wal-…1.seg with the five records plus one fresh active segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 2 {
		t.Fatalf("got %d segment files after repeated reopens, want 2: %v", len(segs), segs)
	}
	if recs := collect(t, dir, 0); len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
}

// TestFloorAheadOfTheLogReopens: a checkpoint floor above the log's last
// record (the shape a checkpoint of an unsynced horizon left behind when
// the process died) must reopen twice. The first reopen resumes at the
// floor; the second must measure the next segment's start from the floor,
// not from the covered segment's last record, and drop that segment.
func TestFloorAheadOfTheLogReopens(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, 42)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info := openTest(t, dir, Options{StartSeq: 43})
	if info.LastSeq != 43 {
		t.Fatalf("first reopen: LastSeq = %d, want the floor 43", info.LastSeq)
	}
	publishN(t, l2, 44, 3)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, dir, 43)
	if len(recs) != 3 || recs[0].Seq != 44 || recs[2].Seq != 46 {
		t.Fatalf("second reopen replayed %+v, want seqs 44..46", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment wholly below the floor still on disk (stat: %v)", err)
	}
}

// TestCorruptLengthMidLogFails: corrupting a frame's LENGTH field (not
// its payload) in the middle of the log must still be detected as
// mid-log corruption — the search for surviving later frames cannot
// trust the corrupt length to find the next frame boundary.
func TestCorruptLengthMidLogFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, 5)
	if !l.WaitDurable(5) {
		t.Fatal("WaitDurable")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, _ := os.ReadFile(segs[0])
	// Bump record 1's length: the claimed payload end no longer lands on
	// the next frame boundary, so only a byte-granular scan can see that
	// records 2..5 are intact.
	n := binary.LittleEndian.Uint32(data[segHeaderSize:])
	binary.LittleEndian.PutUint32(data[segHeaderSize:], n+1)
	if err := os.WriteFile(segs[0], data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open silently truncated a log whose mid-stream length field was corrupted")
	}
}

// TestCorruptLengthLastFrameIsTorn: the same length corruption on the
// FINAL frame has no valid frames after it — indistinguishable from a
// torn tail, so recovery must repair it, not fail.
func TestCorruptLengthLastFrameIsTorn(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, 3)
	if !l.WaitDurable(3) {
		t.Fatal("WaitDurable")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, _ := os.ReadFile(segs[0])
	off := segHeaderSize
	for i := 0; i < 2; i++ { // walk to record 3's frame
		off += frameHeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
	}
	n := binary.LittleEndian.Uint32(data[off:])
	binary.LittleEndian.PutUint32(data[off:], n+1)
	if err := os.WriteFile(segs[0], data, 0o666); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open refused a torn final frame: %v", err)
	}
	defer l2.Abandon()
	if info.LastSeq != 2 || info.TornBytes == 0 {
		t.Fatalf("recovery = %+v, want LastSeq 2 with a reported tear", info)
	}
}

// TestCorruptMidLogFails: a checksum flip in the MIDDLE of the log (with
// valid records after it) is real corruption, not a torn tail — recovery
// must refuse rather than silently drop committed records.
func TestCorruptMidLogFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, 5)
	if !l.WaitDurable(5) {
		t.Fatal("WaitDurable")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, _ := os.ReadFile(segs[0])
	// Flip one payload byte of the FIRST record (past its frame header).
	data[segHeaderSize+frameHeaderSize] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a log with mid-stream corruption")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cp := &Checkpoint{
		LastSeq:    42,
		Clock:      99,
		BlockShift: 4,
		NextBlock:  3,
		Sites:      []string{"default", "app.a", "app.b"},
		BlockSite:  []uint32{0, 1, 2},
		Words:      make([]uint64, 3<<4),
	}
	for i := range cp.Words {
		cp.Words[i] = uint64(i) * 7
	}
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	got, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if got.LastSeq != cp.LastSeq || got.Clock != cp.Clock || got.BlockShift != cp.BlockShift ||
		got.NextBlock != cp.NextBlock {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Sites) != 3 || got.Sites[1] != "app.a" {
		t.Fatalf("sites = %v", got.Sites)
	}
	for i := range cp.Words {
		if got.Words[i] != cp.Words[i] {
			t.Fatalf("word %d = %d, want %d", i, got.Words[i], cp.Words[i])
		}
	}
	// Overwrite with a newer image: the old one must be fully replaced.
	cp2 := *cp
	cp2.LastSeq = 50
	if err := WriteCheckpoint(dir, &cp2); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadCheckpoint(dir)
	if err != nil || got2.LastSeq != 50 {
		t.Fatalf("after overwrite: %+v, %v", got2, err)
	}
}

func TestCheckpointMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if cp, err := ReadCheckpoint(dir); cp != nil || err != nil {
		t.Fatalf("empty dir: cp=%v err=%v", cp, err)
	}
	// A leftover temp file (crash mid-checkpoint) is ignored and removed.
	tmp := filepath.Join(dir, ckptTmpName)
	if err := os.WriteFile(tmp, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	if cp, err := ReadCheckpoint(dir); cp != nil || err != nil {
		t.Fatalf("with tmp leftover: cp=%v err=%v", cp, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp checkpoint not cleaned up")
	}
	// A corrupted CHECKPOINT proper is a hard error.
	cp := &Checkpoint{BlockShift: 4, NextBlock: 1, Sites: []string{"default"},
		BlockSite: []uint32{0}, Words: make([]uint64, 1<<4)}
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ckptName)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(dir); err == nil {
		t.Fatal("ReadCheckpoint accepted a corrupt image")
	}
}

// TestReplayTwiceIdentical is satellite 3's idempotency half at the log
// layer: applying the same records twice must yield the same state as
// once (absolute post-images).
func TestReplayTwiceIdentical(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	for i := uint64(1); i <= 20; i++ {
		// Overlapping addresses so replay order matters.
		l.PublishCommit(i, []Op{{Addr: i % 5, Val: i}, {Addr: 5 + i%3, Val: i * i}})
	}
	if !l.WaitDurable(20) {
		t.Fatal("WaitDurable")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	apply := func(heap []uint64, times int) {
		l2, _ := openTest(t, dir, Options{})
		defer l2.Abandon()
		for n := 0; n < times; n++ {
			if _, err := l2.Replay(0, func(r Record) error {
				for _, op := range r.Ops {
					heap[op.Addr] = op.Val
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	once, twice := make([]uint64, 10), make([]uint64, 10)
	apply(once, 1)
	apply(twice, 2)
	for i := range once {
		if once[i] != twice[i] {
			t.Fatalf("heap[%d]: once %d, twice %d", i, once[i], twice[i])
		}
	}
}

func TestParseCrashpoint(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Crashpoint
		ok   bool
	}{
		{"", CrashNone, true},
		{"none", CrashNone, true},
		{"mid-append", CrashMidAppend, true},
		{"pre-fsync", CrashPreFsync, true},
		{"post-fsync-pre-ack", CrashPostFsyncPreAck, true},
		{"mid-checkpoint", CrashMidCheckpoint, true},
		{"mid-truncate", CrashMidTruncate, true},
		{"bogus", CrashNone, false},
	} {
		got, err := ParseCrashpoint(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseCrashpoint(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, p := range []Crashpoint{CrashMidAppend, CrashPreFsync, CrashPostFsyncPreAck, CrashMidCheckpoint, CrashMidTruncate} {
		rt, err := ParseCrashpoint(p.String())
		if err != nil || rt != p {
			t.Errorf("round-trip %v: got %v, %v", p, rt, err)
		}
	}
}

func TestFrameEncodingRejectsOversize(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 64)
	buf := appendCommitFrame(nil, 1, 1, []Op{{Addr: 1, Val: 2}})
	if len(buf) <= frameHeaderSize {
		t.Fatal("empty frame")
	}
	// Corrupt the declared length beyond the cap: walkFrames must stop.
	oversize := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(oversize, uint32(maxFramePayload+1))
	valid, torn, err := walkFrames(append(oversize, payload...), 0, func([]byte) error { return nil })
	if err != nil {
		t.Fatalf("walkFrames: %v", err)
	}
	if valid != 0 || torn == "" {
		t.Fatalf("oversize frame: valid=%d torn=%q, want rejection as tear", valid, torn)
	}
}
