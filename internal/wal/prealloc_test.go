package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// recordsEnd walks a segment file and returns where its records end, and
// its size.
func recordsEnd(t *testing.T, path string) (end, size int64) {
	t.Helper()
	data, zeros, err := readSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseSegHeader(data); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	valid, torn, err := walkFrames(data[segHeaderSize:], zeros, nil)
	if err != nil || torn != "" {
		t.Fatalf("%s: torn %q, err %v", path, torn, err)
	}
	return int64(segHeaderSize + valid), int64(len(data)) + zeros
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments in %s: %v, %v", dir, segs, err)
	}
	return segs // Glob sorts, and the names sort by start sequence
}

// abandonedLog leaves a crashed log of n acked records in a fresh
// directory and returns the directory and its one segment. The test is
// skipped where segments are not preallocated.
func abandonedLog(t *testing.T, n uint64) (dir, seg string) {
	t.Helper()
	dir = t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, n)
	if !l.WaitDurable(n) {
		t.Fatalf("WaitDurable(%d) = false", n)
	}
	l.Abandon()
	seg = segmentFiles(t, dir)[0]
	if _, size := recordsEnd(t, seg); size != l.opts.SegmentBytes {
		t.Skipf("segment is %d bytes after a crash, not the %d preallocated: no preallocation here", size, l.opts.SegmentBytes)
	}
	return dir, seg
}

// TestReopenAfterCrashCutsThePreallocatedTail: the zeros no write reached
// are not a tear, are not walked, and are gone after recovery.
func TestReopenAfterCrashCutsThePreallocatedTail(t *testing.T) {
	dir, seg := abandonedLog(t, 100)
	end, _ := recordsEnd(t, seg)
	start := time.Now()
	if _, _, err := readSegment(seg); err != nil {
		t.Fatal(err)
	}
	onePass := time.Since(start)

	start = time.Now()
	l, info := openTest(t, dir, Options{})
	took := time.Since(start)
	defer l.Abandon()
	if info.TornBytes != 0 || info.TornReason != "" {
		t.Fatalf("preallocated tail reported as a tear: %d bytes, %q", info.TornBytes, info.TornReason)
	}
	if info.LastSeq != 100 || info.Records != 100 {
		t.Fatalf("recovered %+v, want 100 records", info)
	}
	if _, size := recordsEnd(t, seg); size != end {
		t.Fatalf("recovered segment is %d bytes, its records end at %d", size, end)
	}
	// Recovery costs about one pass over the file to find its last
	// non-zero byte. (Looking for a frame at every byte offset of the
	// zeros, as a torn tail is searched, took 183 ms for 64 MiB.)
	if limit := 3*onePass + 50*time.Millisecond; took > limit {
		t.Fatalf("reopening a crashed preallocated log took %v, one pass over it %v", took, onePass)
	}
	t.Logf("reopen %v, one pass %v", took, onePass)
}

// TestTornGroupInsidePreallocatedSpace: half a group lands past the
// records and the process dies (CrashMidAppend). The whole frames of that
// half are records; the cut one is the tear — its bytes, not the zeros
// behind them.
func TestTornGroupInsidePreallocatedSpace(t *testing.T) {
	dir, seg := abandonedLog(t, 10)
	end, _ := recordsEnd(t, seg)

	// Every byte of these payloads is non-zero, so the cut falls on one.
	const w = 0x0101010101010101
	var group []byte
	for seq := uint64(11); seq <= 14; seq++ {
		group = appendCommitFrame(group, seq, w, []Op{{Addr: w, Val: w}, {Addr: w, Val: w}})
	}
	frame := len(group) / 4
	half := group[:len(group)/2+frame/3] // frames 11 and 12, a third of 13
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(half, end); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, info := openTest(t, dir, Options{})
	defer l.Abandon()
	if info.LastSeq != 12 {
		t.Fatalf("LastSeq = %d, want 12 (two whole frames of the torn group)", info.LastSeq)
	}
	if want := int64(len(half) - 2*frame); info.TornBytes != want || info.TornReason == "" {
		t.Fatalf("TornBytes = %d (%q), want the cut frame's %d", info.TornBytes, info.TornReason, want)
	}
	if _, size := recordsEnd(t, seg); size != end+int64(2*frame) {
		t.Fatalf("recovered segment is %d bytes, want %d", size, end+int64(2*frame))
	}
}

// TestSealedSegmentsAreExactlyTheirRecords: rotation and graceful Close
// cut the preallocated tail, so whenever the process dies only the final
// segment can have one.
func TestSealedSegmentsAreExactlyTheirRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{SegmentBytes: 4096})
	for batch := uint64(0); batch < 40; batch++ {
		publishN(t, l, batch*10+1, 10)
		if !l.WaitDurable(batch*10 + 10) {
			t.Fatalf("WaitDurable(batch %d) = false", batch)
		}
	}
	if st := l.Stats(); st.Rotations < 2 {
		t.Fatalf("%d rotations, want several", st.Rotations)
	}
	exact := func(segs []string) {
		t.Helper()
		for _, seg := range segs {
			if end, size := recordsEnd(t, seg); size != end {
				t.Fatalf("%s is %d bytes, its records end at %d", filepath.Base(seg), size, end)
			}
		}
	}
	// As a crash now would find it.
	segs := segmentFiles(t, dir)
	exact(segs[:len(segs)-1])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	exact(segmentFiles(t, dir))
	if recs := collect(t, dir, 0); len(recs) != 400 {
		t.Fatalf("recovered %d records, want 400", len(recs))
	}
}

// TestPreallocationRefused: where the filesystem will not preallocate,
// the log grows its segment as it writes and works the same.
func TestPreallocationRefused(t *testing.T) {
	saved := preallocate
	preallocate = func(*os.File, int64) error { return errors.ErrUnsupported }
	defer func() { preallocate = saved }()

	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, 50)
	if !l.WaitDurable(50) {
		t.Fatal("WaitDurable(50) = false")
	}
	if st := l.Stats(); st.Fsyncs == 0 {
		t.Fatalf("acked without a sync: %+v", st)
	}
	l.Abandon()
	seg := segmentFiles(t, dir)[0]
	if end, size := recordsEnd(t, seg); size != end {
		t.Fatalf("unpreallocated segment is %d bytes, its records end at %d", size, end)
	}
	l2, info := openTest(t, dir, Options{})
	defer l2.Abandon()
	if info.LastSeq != 50 || info.TornBytes != 0 {
		t.Fatalf("recovered %+v, want 50 records and no tear", info)
	}
}

// TestZeroHoleBeforeAValidFrameIsRefused: a power loss (not a process
// crash) may persist a later block of the last, never-acked group and not
// an earlier one, now that the blocks pre-exist: zeros, then a frame that
// validates. Recovery cannot tell that from damage in the middle of the
// log, and refuses rather than drop the later record or guess.
func TestZeroHoleBeforeAValidFrameIsRefused(t *testing.T) {
	dir := t.TempDir()
	var file []byte
	file = appendSegHeader(file, 1)
	file = appendCommitFrame(file, 1, 1, []Op{{Addr: 1, Val: 10}})
	file = appendCommitFrame(file, 2, 2, []Op{{Addr: 2, Val: 20}})
	hole := len(appendCommitFrame(nil, 3, 3, []Op{{Addr: 3, Val: 30}}))
	file = append(file, make([]byte, hole)...)
	file = appendCommitFrame(file, 4, 4, []Op{{Addr: 4, Val: 40}})
	file = append(file, make([]byte, 1<<16)...) // the preallocated tail
	if err := os.WriteFile(filepath.Join(dir, segName(1)), file, 0o666); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(dir, Options{})
	if err == nil {
		l.Abandon()
		t.Fatal("Open repaired a zero hole followed by a valid frame")
	}
	if !strings.Contains(err.Error(), "mid-log corruption") {
		t.Fatalf("Open: %v, want the mid-log corruption error", err)
	}
}

// TestFlusherStopsAtTheFirstError: after a failed append nothing more is
// written or acknowledged — the lost group's records would be a gap no
// recovery gets past — and nobody waits for a flusher that is gone.
func TestFlusherStopsAtTheFirstError(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	publishN(t, l, 1, 5)
	if !l.WaitDurable(5) {
		t.Fatal("WaitDurable(5) = false")
	}
	l.f.Close() // the next append fails; the flusher is parked meanwhile
	seq := l.PublishCommit(6, []Op{{Addr: 6, Val: 60}})
	if l.WaitDurable(seq) {
		t.Fatal("a record whose append failed was reported durable")
	}
	if l.PublishCommit(7, []Op{{Addr: 7, Val: 70}}) != 0 {
		t.Fatal("a dead log accepted a record")
	}
	if l.WaitDurable(seq+1) || l.DurableSeq() != 5 {
		t.Fatalf("watermark moved to %d after the failed append", l.DurableSeq())
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close returned nil after a failed append")
	}
	if recs := collect(t, dir, 0); len(recs) != 5 {
		t.Fatalf("recovered %d records, want the 5 acked ones", len(recs))
	}
}
