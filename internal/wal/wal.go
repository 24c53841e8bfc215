// Package wal is the engine's durable redo log: an asynchronous,
// group-committed write-ahead log plus checkpointing and recovery.
//
// Committing transactions tee their write set — absolute post-images,
// the same per-commit batches the multi-version store buckets — into a
// bounded lock-free publish ring while still holding every write lock,
// which makes the assigned log sequence order identical to commit order
// per address. A single flusher goroutine drains the ring in sequence
// order, encodes the batch into length-prefixed CRC32C-checksummed
// frames, appends them to the active segment file, and syncs once per
// group — one sync amortized over every commit that landed in the
// window. The active segment is preallocated (fallocate, on Linux) and
// the sync is a data sync (fdatasync): an append into blocks that already
// exist changes neither the file's size nor its block map, so the sync
// has no metadata to journal (121–124 µs against 161–175 µs for an fsync
// of a growing file, on the disk this was measured on). The data sync is
// two calls, each waiting for one device operation — write-out, then cache
// flush — so neither keeps the flusher's thread in the kernel for long
// enough that the runtime starts another in its place (datasync in
// sync_linux.go says why that matters). Rotation and
// graceful Close cut the unused tail off (sealSegment); a crash leaves it
// on the final segment, and recovery recognises the zeros. Where the
// filesystem refuses to preallocate, the segment grows as it is written
// and the data sync carries the new size. Durability is a knob:
//
//   - Off:   the log is not attached at all; zero cost on the commit path.
//   - Async: commits publish and return; a crash may lose the last
//     unflushed window, never more (prefix durability: what survives is
//     a causally consistent prefix of the commit order).
//   - Sync:  a committing transaction additionally parks until the
//     flusher's durable watermark passes its sequence (WaitDurable: nudge
//     the flusher, park) — or, under core.DeferDurable, hands that wait
//     to its caller, who may cover many commits with one. An acked Sync
//     commit survives any crash; a commit the log cannot make durable
//     (WaitDurable returning false: the flusher has stopped and the
//     watermark is final) is reported to the caller by the engine
//     (core.ErrNotDurable), never acked.
//
// Recovery (Open) validates every segment frame, truncates a torn tail
// (the signature of dying mid-append) and the zeros of a preallocated
// tail behind it, and replays the redo records past the newest checkpoint
// onto the restored heap image — idempotently, since records carry
// absolute values in commit order. Crash-point fault injection
// (Crashpoint) turns every window of the protocol into a testable SIGKILL
// site.
//
// The checkpoint floor (Options.StartSeq) obeys one rule on each side. A
// checkpoint never records a sequence above the durable watermark: the
// engine waits for the log to sync through the image's floor before it
// writes the image, and fails the checkpoint if the log stops first.
// Recovery measures gaps from the floor: the first segment kept must
// start at or below floor+1, and a segment whose records all lie at or
// below the floor is removed, as TruncateBefore would have removed it. So
// a directory whose floor already lies above its log still reopens.
//
// A stated limit. A process crash (SIGKILL, panic, OOM) leaves the file
// as the page cache has it: a prefix of what was written, then zeros.
// A power loss is not bound to that: the blocks of the last, never-acked
// group pre-exist, so the device may persist a later one and not an
// earlier one — zeros, then a frame that validates. Recovery does not
// guess: it reports that shape as mid-log corruption and refuses to open
// (no acked record is involved; cutting the file at the hole by hand
// loses nothing that was promised). An envelope per group, which would
// let recovery drop an incomplete group whole, is future work.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Durability selects how hard commits lean on the log.
type Durability int

const (
	// Off disables the log entirely.
	Off Durability = iota
	// Async publishes commit records without waiting for them to reach
	// disk.
	Async
	// Sync parks every committing transaction until its record is
	// fsynced.
	Sync
)

// String names the durability mode.
func (d Durability) String() string {
	switch d {
	case Off:
		return "off"
	case Async:
		return "async"
	case Sync:
		return "sync"
	}
	return fmt.Sprintf("Durability(%d)", int(d))
}

// Options configure Open.
type Options struct {
	// GroupCommitInterval is the flusher's coalescing window: commits
	// published within one interval share a single write+fsync. Default
	// 200µs.
	GroupCommitInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 64 MiB.
	SegmentBytes int64
	// RingSize is the publish ring's capacity in records (rounded up to a
	// power of two; default 8192). Publishers that outrun the flusher by
	// a full ring spin until it catches up (Stats.PublishStalls).
	RingSize int
	// StartSeq is the checkpoint's last covered sequence number: the
	// floor recovery resumes from when the segments hold nothing newer.
	StartSeq uint64
}

func (o Options) withDefaults() Options {
	if o.GroupCommitInterval <= 0 {
		o.GroupCommitInterval = 200 * time.Microsecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.RingSize <= 0 {
		o.RingSize = 8192
	}
	n := 1
	for n < o.RingSize {
		n <<= 1
	}
	o.RingSize = n
	return o
}

// Stats is a momentary reading of the log's counters.
type Stats struct {
	// Appends counts records published; AppendedBytes the encoded bytes
	// written to segment files.
	Appends       uint64
	AppendedBytes uint64
	// Fsyncs counts the flusher's segment syncs (fdatasync where there is
	// one); GroupCommits counts flush cycles that
	// wrote at least one record and GroupedRecords the records they
	// carried, so GroupedRecords/GroupCommits is the mean group size —
	// the amortization the group-commit interval buys.
	Fsyncs         uint64
	GroupCommits   uint64
	GroupedRecords uint64
	// PublishStalls counts publisher spins against a full ring
	// (backpressure: the flusher is behind).
	PublishStalls uint64
	// SyncWaits counts WaitDurable calls that found their record not yet
	// durable; SyncParks the ones that parked for it (all but those the
	// flusher overtook on their way to the lock).
	SyncWaits uint64
	SyncParks uint64
	// Rotations counts segment rotations, Checkpoints completed
	// checkpoints, TruncatedSegments segments retired by checkpoints.
	Rotations         uint64
	Checkpoints       uint64
	TruncatedSegments uint64
	// Seq is the last published sequence number and DurableSeq the last
	// fsynced one; their gap is the window a crash would lose under
	// Async.
	Seq        uint64
	DurableSeq uint64
}

type ringEntry struct {
	kind       uint8
	ver        uint64
	ops        *[]Op // pooled box; flusher returns it after encoding
	firstBlock uint64
	blocks     uint64
	site       string
	// ready is the publication flag: the publisher fills the entry and
	// stores 1; the flusher consumes in sequence order, stores 0, then
	// advances the tail.
	ready atomic.Uint32
}

// Log is an open write-ahead log. Publish methods are safe for
// concurrent use; Close/Abandon must be called after publishers stop.
type Log struct {
	dir  string
	opts Options
	mask uint64
	ring []ringEntry

	// head is the last assigned sequence number, tail the last consumed
	// by the flusher, durable the last fsynced.
	head    atomic.Uint64
	tail    atomic.Uint64
	durable atomic.Uint64

	// dead marks a log that was abandoned (simulated crash) or whose
	// flusher hit an I/O error; closed marks one Close was called on.
	// Either turns publishes into no-ops. WaitDurable keys off done
	// instead: once the flusher has stopped, the watermark is final.
	dead   atomic.Bool
	closed atomic.Bool

	wake     chan struct{}
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu   sync.Mutex
	cond *sync.Cond

	opPool sync.Pool

	// segMu guards the segment list, shared between the flusher
	// (rotation) and checkpoint truncation.
	segMu    sync.Mutex
	segments []segmentInfo

	// recovered are the pre-existing segments Replay reads; the active
	// segment created by Open holds only post-recovery records.
	recovered []segmentInfo

	// Flusher-owned state.
	f        *os.File
	segStart uint64
	segSize  int64
	enc      []byte
	closeErr error

	stAppends, stBytes, stFsyncs          atomic.Uint64
	stGroups, stGrouped, stStalls         atomic.Uint64
	stSyncWaits, stSyncParks              atomic.Uint64
	stRotations, stCkpts, stTruncatedSegs atomic.Uint64
}

// Open recovers the log in dir (creating it if needed) and starts the
// flusher. The returned RecoveryInfo describes what was found and
// repaired; use Replay to apply the surviving records before publishing
// new ones.
func Open(dir string, opts Options) (*Log, *RecoveryInfo, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, err
	}
	segs, info, err := recoverSegments(dir, opts.StartSeq)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:       dir,
		opts:      opts,
		mask:      uint64(opts.RingSize - 1),
		ring:      make([]ringEntry, opts.RingSize),
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		segments:  segs,
		recovered: append([]segmentInfo(nil), segs...),
	}
	l.cond = sync.NewCond(&l.mu)
	l.opPool.New = func() any { s := make([]Op, 0, 64); return &s }
	l.head.Store(info.LastSeq)
	l.tail.Store(info.LastSeq)
	l.durable.Store(info.LastSeq)
	if err := l.openSegment(info.LastSeq + 1); err != nil {
		return nil, nil, err
	}
	go l.flusher()
	return l, info, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// SeqHorizon returns the last assigned sequence number: every record at
// or below it has been published (its commit finished assigning versions
// before the horizon was read), which is the watermark checkpoints cover.
func (l *Log) SeqHorizon() uint64 { return l.head.Load() }

// DurableSeq returns the last fsynced sequence number.
func (l *Log) DurableSeq() uint64 { return l.durable.Load() }

// Stats returns a momentary counter snapshot.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:           l.stAppends.Load(),
		AppendedBytes:     l.stBytes.Load(),
		Fsyncs:            l.stFsyncs.Load(),
		GroupCommits:      l.stGroups.Load(),
		GroupedRecords:    l.stGrouped.Load(),
		PublishStalls:     l.stStalls.Load(),
		SyncWaits:         l.stSyncWaits.Load(),
		SyncParks:         l.stSyncParks.Load(),
		Rotations:         l.stRotations.Load(),
		Checkpoints:       l.stCkpts.Load(),
		TruncatedSegments: l.stTruncatedSegs.Load(),
		Seq:               l.head.Load(),
		DurableSeq:        l.durable.Load(),
	}
}

// PublishCommit appends a commit record carrying the write set's absolute
// post-images. It MUST be called while the committing transaction still
// holds every write lock: the sequence claimed here then agrees with
// commit order on every address, which is what makes replay (and any
// recovered prefix) consistent. The ops slice is copied; the caller may
// reuse it. Returns the assigned sequence (0 when the log is down).
func (l *Log) PublishCommit(ver uint64, ops []Op) uint64 {
	if l.dead.Load() || l.closed.Load() {
		return 0
	}
	bufp := l.opPool.Get().(*[]Op)
	*bufp = append((*bufp)[:0], ops...)
	seq := l.head.Add(1)
	e := l.claim(seq)
	if e == nil {
		l.opPool.Put(bufp)
		return 0
	}
	e.kind = KindCommit
	e.ver = ver
	e.ops = bufp // the boxed slice rides the ring; the flusher pools it back
	e.ready.Store(1)
	l.stAppends.Add(1)
	return seq
}

// PublishGrab appends a block-grab record: blocks [firstBlock,
// firstBlock+blocks) were assigned to the named allocation site. Called
// under the arena's allocation mutex, so a grab's sequence always
// precedes any commit that writes into the grabbed blocks.
func (l *Log) PublishGrab(firstBlock, blocks uint64, site string) uint64 {
	if l.dead.Load() || l.closed.Load() {
		return 0
	}
	seq := l.head.Add(1)
	e := l.claim(seq)
	if e == nil {
		return 0
	}
	e.kind = KindGrab
	e.firstBlock = firstBlock
	e.blocks = blocks
	e.site = site
	e.ready.Store(1)
	l.stAppends.Add(1)
	return seq
}

// claim waits for seq's ring slot to be free and returns it, or nil when
// the log died while waiting (the flusher is gone; nothing will ever
// drain the ring). A nil return leaves a sequence gap that only the
// already-dead flusher would have noticed.
func (l *Log) claim(seq uint64) *ringEntry {
	ringLen := uint64(len(l.ring))
	for spins := 0; seq-l.tail.Load() > ringLen; spins++ {
		l.stStalls.Add(1)
		if l.dead.Load() {
			return nil
		}
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
	return &l.ring[seq&l.mask]
}

// WaitDurable blocks until the record at seq is synced: check, nudge the
// flusher, park. (A sync never takes under 100µs on a disk, so a spin or
// yield phase in front of the park only took the processor the flusher's
// wake-up needs.) It returns false when the log died or closed before seq
// became durable — the in-process analogue of crashing before the ack.
func (l *Log) WaitDurable(seq uint64) bool {
	if seq == 0 {
		return false
	}
	if l.durable.Load() >= seq {
		return true
	}
	l.stSyncWaits.Add(1)
	// Nudge the flusher rather than waiting out the rest of its window.
	select {
	case l.wake <- struct{}{}:
	default:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for parked := false; l.durable.Load() < seq; parked = true {
		select {
		case <-l.done:
			// The flusher is gone (Close, Abandon, an I/O error): the
			// watermark is final and seq is above it.
			return false
		default:
		}
		if !parked {
			l.stSyncParks.Add(1)
		}
		l.cond.Wait()
	}
	return true
}

// Sync forces a group commit of everything published so far and waits
// for it.
func (l *Log) Sync() bool {
	return l.WaitDurable(l.head.Load())
}

// Close drains the ring, fsyncs, and stops the flusher. Call it only
// after publishers have stopped (the engine detaches the log first).
func (l *Log) Close() error {
	l.closed.Store(true)
	l.stopOnce.Do(func() { close(l.quit) })
	<-l.done
	return l.closeErr
}

// Abandon simulates a crash without leaving the process: the flusher
// stops immediately WITHOUT flushing the ring or fsyncing, publishes
// become no-ops, and parked Sync waiters return false. Whatever the
// flusher had already written stays in the OS page cache — exactly the
// set of outcomes a real crash leaves on disk (an fsynced prefix, plus
// possibly more). The torture harness recovers the directory afterwards
// as if the process had died.
func (l *Log) Abandon() {
	l.dead.Store(true)
	l.stopOnce.Do(func() { close(l.quit) })
	<-l.done
}

// NoteCheckpoint bumps the checkpoint counter (called by the engine
// after WriteCheckpoint succeeds).
func (l *Log) NoteCheckpoint() { l.stCkpts.Add(1) }

// TruncateBefore retires segments every record of which has sequence <=
// seq (they are fully covered by a checkpoint). Removal runs oldest
// first, so a crash mid-truncate leaves a contiguous suffix. The active
// segment is never removed.
func (l *Log) TruncateBefore(seq uint64) error {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	if len(l.segments) == 0 {
		return nil
	}
	// The list's last entry is the active segment. Stopping the advance
	// at its path (not just its index) keeps the flusher's file on disk
	// even if the list ever aliased two entries to one path.
	active := l.segments[len(l.segments)-1].path
	keep := 0
	for keep+1 < len(l.segments) && l.segments[keep+1].startSeq <= seq+1 &&
		l.segments[keep].path != active {
		keep++
	}
	// segments[0:keep] end strictly before segments[keep].startSeq <=
	// seq+1, so every record in them is <= seq.
	for i := 0; i < keep; i++ {
		if err := os.Remove(l.segments[i].path); err != nil && !os.IsNotExist(err) {
			return err
		}
		l.stTruncatedSegs.Add(1)
		crash(CrashMidTruncate)
	}
	if keep > 0 {
		l.segments = append(l.segments[:0], l.segments[keep:]...)
		return syncDir(l.dir)
	}
	return nil
}

// Replay re-reads the records recovered by Open (not anything published
// since) in sequence order, invoking fn for every record with Seq >
// fromSeq. Call it once, after Open and before publishing.
func (l *Log) Replay(fromSeq uint64, fn func(Record) error) (ReplayStats, error) {
	return replaySegments(l.recovered, fromSeq, fn)
}

// openSegment creates and fsyncs a fresh active segment whose first
// record will be startSeq, then fsyncs the directory so the file itself
// survives a crash. The segment is preallocated to SegmentBytes where the
// filesystem allows it, so the flusher's data syncs have no metadata to
// journal; where it refuses, the segment grows as it is written and each
// data sync carries the new size.
func (l *Log) openSegment(startSeq uint64) error {
	path := filepath.Join(l.dir, segName(startSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	_ = preallocate(f, l.opts.SegmentBytes) // best effort, see above
	hdr := appendSegHeader(nil, startSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segStart = startSeq
	l.segSize = int64(len(hdr))
	l.segMu.Lock()
	l.segments = append(l.segments, segmentInfo{path: path, startSeq: startSeq})
	l.segMu.Unlock()
	return nil
}

// flusher is the single consumer: it coalesces published records into
// group commits on the configured interval (or sooner when a Sync waiter
// nudges it), writes, fsyncs, publishes the durable watermark, and
// rotates segments.
func (l *Log) flusher() {
	// However it ends, the flusher leaves a final watermark behind:
	// release everyone parked in WaitDurable for more.
	defer func() {
		l.mu.Lock()
		close(l.done)
		l.cond.Broadcast()
		l.mu.Unlock()
	}()
	timer := time.NewTimer(l.opts.GroupCommitInterval)
	defer timer.Stop()
	for {
		select {
		case <-l.quit:
			if l.dead.Load() {
				l.f.Close() // a crash seals nothing
			} else {
				// Graceful close: drain whatever is published.
				for l.tail.Load() < l.head.Load() {
					if err := l.flushOnce(); err != nil {
						l.closeErr = err
						break
					}
				}
				if err := l.sealSegment(); err != nil && l.closeErr == nil {
					l.closeErr = err
				}
			}
			return
		case <-l.wake:
		case <-timer.C:
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if err := l.flushOnce(); err != nil {
			// An append error is unrecoverable mid-run: declare the log
			// dead so publishers stop relying on it, and stop. Flushing on
			// would sync later groups behind records this one lost and
			// acknowledge commits recovery can never reach.
			l.closeErr = err
			l.dead.Store(true)
			l.f.Close()
			return
		}
		timer.Reset(l.opts.GroupCommitInterval)
	}
}

// sealSegment ends the active segment's time as the active one: cut the
// preallocated tail off so the file is exactly its records, make that
// durable, close. Every segment but the active one is sealed, so only the
// final segment of a crashed log can carry a tail of any kind.
func (l *Log) sealSegment() error {
	err := l.f.Truncate(l.segSize)
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// flushOnce drains every ready record, writes them as one group, syncs
// their data, and advances the durable watermark.
func (l *Log) flushOnce() error {
	tail := l.tail.Load()
	head := l.head.Load()
	l.enc = l.enc[:0]
	n := 0
	for next := tail + 1; next <= head; next++ {
		e := &l.ring[next&l.mask]
		// The publisher claimed this sequence but has not stored ready
		// yet; the fill is a handful of instructions away. A dead
		// publisher (claim returned nil on a dying log) only happens
		// after dead is set, when this loop no longer runs.
		for spins := 0; e.ready.Load() == 0; spins++ {
			if spins > 1024 {
				runtime.Gosched()
			}
			if l.dead.Load() {
				head = next - 1 // flush what is contiguous
				break
			}
		}
		if e.ready.Load() == 0 {
			break
		}
		switch e.kind {
		case KindCommit:
			l.enc = appendCommitFrame(l.enc, next, e.ver, *e.ops)
			l.opPool.Put(e.ops)
			e.ops = nil
		case KindGrab:
			l.enc = appendGrabFrame(l.enc, next, e.firstBlock, e.blocks, e.site)
			e.site = ""
		}
		e.ready.Store(0)
		l.tail.Store(next)
		n++
	}
	if n == 0 {
		return nil
	}
	if hit(CrashMidAppend) {
		// A torn write: half the group's bytes reach the file, then the
		// process dies. Recovery must detect the dangling frame by
		// length/checksum and truncate it.
		l.f.Write(l.enc[:len(l.enc)/2])
		kill()
	}
	if _, err := l.f.Write(l.enc); err != nil {
		return err
	}
	crash(CrashPreFsync)
	if err := datasync(l.f, l.segSize, int64(len(l.enc))); err != nil {
		return err
	}
	crash(CrashPostFsyncPreAck)
	l.stBytes.Add(uint64(len(l.enc)))
	l.stFsyncs.Add(1)
	l.stGroups.Add(1)
	l.stGrouped.Add(uint64(n))
	l.segSize += int64(len(l.enc))
	l.mu.Lock()
	l.durable.Store(l.tail.Load())
	l.cond.Broadcast()
	l.mu.Unlock()
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.sealSegment(); err != nil {
			return err
		}
		l.stRotations.Add(1)
		if err := l.openSegment(l.tail.Load() + 1); err != nil {
			return err
		}
	}
	return nil
}
