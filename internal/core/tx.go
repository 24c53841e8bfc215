package core

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/memory"
	"repro/internal/mvstore"
	"repro/internal/wal"
)

// writeMode tags how a write-set entry reaches memory.
type writeMode uint8

const (
	modeWB  writeMode = iota // buffered, applied at commit (ETL write-back)
	modeWT                   // written in place under lock, old value kept for undo
	modeCTL                  // buffered, orec acquired at commit time
)

type readEntry struct {
	o   *orec
	ver uint64
}

type writeEntry struct {
	addr memory.Addr
	val  uint64 // new value (WB/CTL)
	old  uint64 // pre-image (WT undo)
	o    *orec
	ps   *partState
	mode writeMode
}

type lockRec struct {
	o    *orec
	prev uint64
	// pid is the owning partition: the partition-local time base mints
	// this lock's release version from that partition's commit counter.
	pid PartID
}

type allocRec struct {
	addr memory.Addr
	n    int
}

type touchRec struct {
	p *Partition
	// snap is the transaction's snapshot of this partition's commit
	// counter. Under the global time base every entry mirrors tx.snapshot
	// (one shared timeline); under the partition-local time base each
	// partition has its own, sampled at first touch and re-anchored
	// together by extensions and footprint alignment.
	snap  uint64
	wrote bool
	// The attempt's counters for this partition, accumulated in plain words
	// and flushed into the thread's PartThreadStats block once, by finish,
	// whether the attempt commits or aborts (see PartThreadStats).
	loads, stores        uint64
	snapHits, snapMisses uint64
	wait                 waitAcct
}

// Tx is a transaction descriptor. One lives in each Thread and is reused
// across attempts; all methods must be called from the owning goroutine,
// inside Run. Transactional operations abort by panicking with an internal
// signal that Run recovers; user code simply calls Load/Store and lets the
// engine retry.
type Tx struct {
	eng  *Engine
	th   *Thread
	topo *topology

	// tb and pl cache the engine's time base for the attempt (the time
	// base only changes under quiescence, never while an attempt runs).
	tb clock.TimeBase
	pl bool // tb is partition-local

	// snapshot is the global snapshot under the global time base. Under
	// the partition-local time base per-partition snapshots live in
	// touched[].snap and this field tracks the first-touched partition's
	// (see Snapshot).
	snapshot uint64
	// beginEpoch is the cross-partition epoch sampled at begin and
	// refreshed by every successful extension (partition-local mode only).
	beginEpoch uint64
	readOnly   bool
	hasVisible bool
	// snapMode marks a snapshot read-only attempt (Run with Snapshot()):
	// reads are answered at the snapshot sampled at begin, and a location a
	// commit has since overwritten is reconstructed from the partition's
	// multi-version store (partState.hist) instead of extending; snapHits
	// counts the words so reconstructed, snapMisses the stale words the
	// store could not serve (both are the attempt's totals, summed over the
	// touched partitions by finish).
	//
	// unlogged marks the FIRST attempt of a snapshot-mode Run: on a
	// partition that has a store, a read valid at the snapshot — fresh or
	// reconstructed — is not recorded (rs and rsIdx stay untouched).
	// pinned is set by the first such read, and by every reconstructed read,
	// logged or not: from then on the snapshot cannot move (extend refuses),
	// because unrecorded reads cannot be revalidated and reconstructed
	// values are correct only at that instant. A miss then aborts the
	// attempt, and Engine.run retries with unlogged off: retries log every
	// read and take the ordinary validate/extend path, so neither
	// correctness nor the progress of a scan over a too-small ring depends
	// on retention. Partitions without a store always log — there is
	// nothing to pin against.
	snapMode   bool
	unlogged   bool
	pinned     bool
	snapHits   uint64
	snapMisses uint64
	opCount    uint64
	// seq is this Run's CMTimestamp ordinal, 0 until drawn (see ordinal).
	seq uint64
	// wait is the attempt's wait accounting summed over the touched
	// partitions by finish; it rides into AttemptEvent next to opCount.
	// stallMark is the clock reading of the last stall iteration (the
	// attribution scheme is documented in wait.go).
	wait      waitAcct
	stallMark time.Duration
	// timed marks an attempt whose duration is being measured (latency
	// tracking enabled or a tracer attached): attemptStart is sampled at
	// begin and durationNs computed at finish, so committed attempts can
	// record into the touched partitions' latency histograms and the trace
	// event can carry the attempt duration.
	timed        bool
	attemptStart time.Time
	durationNs   uint64
	// retiredWords/reclaimedWords count heap words this attempt retired
	// into limbo at commit and migrated back to free lists (finish's
	// commit-path reclaim); they ride into AttemptEvent next to the wait
	// counters.
	retiredWords   uint64
	reclaimedWords uint64

	rs      []readEntry
	ws      []writeEntry
	locks   []lockRec
	vreads  []*orec
	allocs  []allocRec
	frees   []allocRec
	touched []touchRec

	// Footprint-bounded lookup structure (txindex.go): every per-access
	// search (read-set dedup, write-set probe, own-lock lookup) runs an
	// inline linear scan behind a one-word first-touch filter while the set
	// is small, and one find-or-insert probe of a generation-stamped index
	// once it outgrows the scan. The lock set, searched only by validation
	// and history publication, mirrors new entries lazily (lkIndexed counts
	// those mirrored so far).
	rsIdx     txIndex
	wsIdx     txIndex
	lkIdx     txIndex
	lkIndexed int

	// touchIdx/touchGen give O(1) partition→touched lookup: touchIdx[pid]
	// is the partition's position in tx.touched when touchGen[pid] matches
	// touchGenVal (bumped every attempt; sized to the topology at begin).
	touchIdx    []int32
	touchGen    []uint64
	touchGenVal uint64

	// Commit/extension scratch, reused across attempts: the deduplicated
	// written partitions, their assigned write versions (also mirrored into
	// wvByPid for O(1) lookup at lock release), extension's resampled
	// snapshots, and appendHistory's per-partition record buckets (indexed
	// by the partition's position in tx.touched).
	commitParts []uint32
	commitWV    []uint64
	wvByPid     []uint64
	extSnaps    []uint64
	histRecs    [][]mvstore.Record
	histBufs    []*mvstore.Buffer

	// Redo-log scratch (wal.go): the record built under this commit's
	// write locks, the log sequence it claimed (0 when nothing was
	// published — read-only attempt, no log attached, or log shut down),
	// and the attached log state the write set teed into (nil when this
	// attempt had nothing to publish). walDst is what Run's post-commit
	// durability wait keys off, so a Sync commit whose record never
	// becomes durable surfaces as ErrNotDurable instead of nil.
	walOps []wal.Op
	walSeq uint64
	walDst *walBox
}

func (tx *Tx) init(e *Engine, th *Thread) {
	tx.eng = e
	tx.th = th
}

// Snapshot returns the transaction's current snapshot timestamp: the
// global snapshot under the global time base, or the first-touched
// partition's snapshot under the partition-local one (0 before any
// access). In both modes it never moves backwards within an attempt.
func (tx *Tx) Snapshot() uint64 { return tx.snapshot }

// ReadOnly reports whether this attempt runs in read-only mode.
func (tx *Tx) ReadOnly() bool { return tx.readOnly }

// SnapshotMode reports whether this attempt runs as a snapshot read-only
// transaction (see the Snapshot option).
func (tx *Tx) SnapshotMode() bool { return tx.snapMode }

// SnapshotHits reports how many reads of this attempt were reconstructed
// from a partition's multi-version store (exposed for tests and
// experiments).
func (tx *Tx) SnapshotHits() uint64 {
	n := tx.snapHits // the flushed total once the attempt has finished
	for i := range tx.touched {
		n += tx.touched[i].snapHits
	}
	return n
}

// Thread returns the owning thread.
func (tx *Tx) Thread() *Thread { return tx.th }

func (tx *Tx) begin(readOnly, snap, unlogged bool) {
	tx.topo = tx.eng.topo.Load()
	tx.readOnly = readOnly
	tx.hasVisible = false
	tx.snapMode = snap && readOnly
	tx.unlogged = unlogged && tx.snapMode
	tx.pinned = false
	tx.snapHits = 0
	tx.snapMisses = 0
	tx.opCount = 0
	tx.wait = waitAcct{}
	tx.retiredWords = 0
	tx.reclaimedWords = 0
	tx.durationNs = 0
	tx.walSeq = 0
	tx.walDst = nil
	tx.timed = tx.eng.latency.Load() || tx.eng.tracer.Load() != nil
	if tx.timed {
		tx.attemptStart = time.Now()
	}
	tx.rs = tx.rs[:0]
	tx.ws = tx.ws[:0]
	tx.locks = tx.locks[:0]
	tx.vreads = tx.vreads[:0]
	tx.allocs = tx.allocs[:0]
	tx.frees = tx.frees[:0]
	tx.touched = tx.touched[:0]
	tx.rsIdx.reset()
	tx.wsIdx.reset()
	tx.lkIdx.reset()
	tx.lkIndexed = 0
	if n := len(tx.topo.parts); len(tx.touchIdx) < n {
		tx.touchIdx = make([]int32, n)
		tx.touchGen = make([]uint64, n)
	}
	tx.touchGenVal++
	// Stale arbitration state from a previous attempt does not apply; both
	// words are almost always zero already, and finding that out is free.
	if tx.th.killed.Load() != 0 {
		tx.th.killed.Store(0)
	}
	if tx.th.progress.Load() != 0 {
		tx.th.progress.Store(0)
	}
	tx.tb = tx.eng.timeBase()
	tx.pl = tx.tb.Mode() == clock.ModePartitionLocal
	// Publish the reclamation stamp BEFORE sampling any snapshot: the
	// horizon sweep must be able to see this transaction before it bases a
	// single read on the clock, else a reclaimer that misses the slot could
	// recycle an address an already-sampled snapshot can still reach (the
	// ordering contract in internal/epoch). The stamp is a ceiling sample —
	// comparable across both time-base modes, and a lower bound on every
	// snapshot this attempt will ever hold, pinned or extended. All modes
	// publish: snapshot readers reconstruct freed addresses from history,
	// and update/read-only attempts also gate on it so extension never
	// revalidates against a recycled word.
	tx.eng.epochs.Publish(tx.th.slot, tx.tb.Ceiling())
	if tx.pl {
		// Per-partition snapshots are sampled lazily at first touch; the
		// epoch sample anchors the cross-partition staleness check.
		tx.beginEpoch = tx.tb.Begin()
		tx.snapshot = 0
	} else {
		tx.snapshot = tx.tb.Begin()
	}
}

func (tx *Tx) abort(cause AbortCause) {
	panic(abortSignal{cause: cause})
}

// Abort aborts the transaction attempt and retries it (an explicit user
// restart).
func (tx *Tx) Abort() { tx.abort(AbortExplicit) }

func (tx *Tx) checkKilled() {
	if tx.th.killed.Load() != 0 {
		tx.th.killed.Store(0)
		tx.abort(AbortKilled)
	}
}

// touch registers partition p in the transaction's footprint and returns
// its index in tx.touched. Repeat touches resolve in O(1) through the
// generation-stamped touchIdx table (sized to the topology at begin).
// First touches sample the partition's snapshot; under the partition-local
// time base, widening the footprint beyond one partition first re-anchors
// the existing snapshots (alignFootprint), so all per-partition snapshots
// always correspond to one common instant.
func (tx *Tx) touch(p *Partition, wrote bool) int {
	id := int(p.id)
	if tx.touchGen[id] == tx.touchGenVal {
		i := int(tx.touchIdx[id])
		if wrote {
			tx.touched[i].wrote = true
		}
		return i
	}
	snap := tx.snapshot
	if tx.pl {
		if len(tx.touched) > 0 {
			snap = tx.alignFootprint(p)
		} else {
			snap = tx.tb.Now(uint32(p.id))
			tx.snapshot = snap
		}
	}
	n := len(tx.touched)
	if n < cap(tx.touched) {
		tx.touched = tx.touched[:n+1]
	} else {
		tx.touched = append(tx.touched, touchRec{})
	}
	// Filled in place: the record is a cache line and a half of counters.
	tx.touched[n] = touchRec{p: p, snap: snap, wrote: wrote}
	tx.touchIdx[id] = int32(n)
	tx.touchGen[id] = tx.touchGenVal
	return n
}

// Small-set thresholds: up to these many entries, set membership runs as an
// inline linear scan behind the index's one-word filter (the entries fit in
// a couple of cache lines and a scan beats a hash probe); above, lookups go
// through the generation-stamped index.
const (
	rsSmallMax = 16
	wsSmallMax = 8
	lkSmallMax = 8
)

// wsFind returns the write-set position for addr, or -1. Read-after-write
// trusts a clear filter bit or a missed probe to mean "never written", so
// every write-set append goes through wsEntry, which keeps both exact.
func (tx *Tx) wsFind(addr memory.Addr) int {
	if tx.wsIdx.live() {
		return tx.wsIdx.get(uint64(addr))
	}
	if tx.wsIdx.hint(uint64(addr)) {
		for i := range tx.ws {
			if tx.ws[i].addr == addr {
				return i
			}
		}
	}
	return -1
}

// wsEntry returns addr's write-set entry, appending one (only addr set, for
// the caller to fill in) when addr has not been written yet; fresh reports
// which.
func (tx *Tx) wsEntry(addr memory.Addr) (en *writeEntry, fresh bool) {
	k, n := uint64(addr), len(tx.ws)
	if !tx.wsIdx.live() && n < wsSmallMax {
		if i := tx.wsFind(addr); i >= 0 {
			return &tx.ws[i], false
		}
		tx.wsIdx.mark(k)
	} else {
		if tx.wsIdx.full() {
			// The set outgrows the scan, or the table: (re)build the index.
			tx.wsIdx.grow(n + 1)
			for i := range tx.ws {
				tx.wsIdx.put(uint64(tx.ws[i].addr), i)
			}
		}
		s, found := tx.wsIdx.probe(k)
		if found {
			return &tx.ws[s.pos], false
		}
		s.pos = int32(n)
	}
	tx.ws = append(tx.ws, writeEntry{addr: addr})
	return &tx.ws[n], true
}

// lkFind returns the lock-set position holding orec o, or -1. Past the
// small-set threshold it lazily mirrors newly appended entries into lkIdx
// and probes that instead (used by commit-time validation's own-lock
// lookups and history publication; acquisition itself never searches).
func (tx *Tx) lkFind(o *orec) int {
	if len(tx.locks) <= lkSmallMax && !tx.lkIdx.live() {
		for i := range tx.locks {
			if tx.locks[i].o == o {
				return i
			}
		}
		return -1
	}
	if n := len(tx.locks); n > len(tx.lkIdx.slots)/2 {
		tx.lkIdx.grow(n) // sized for all n: stays at most half full below
		tx.lkIndexed = 0
	}
	for ; tx.lkIndexed < len(tx.locks); tx.lkIndexed++ {
		tx.lkIdx.put(orecKey(tx.locks[tx.lkIndexed].o), tx.lkIndexed)
	}
	return tx.lkIdx.get(orecKey(o))
}

// ReadSetLen reports the current number of read-set entries. Deduplication
// bounds it by the number of unique orecs the transaction has read, not by
// the number of loads executed (exposed for tests and experiments).
func (tx *Tx) ReadSetLen() int { return len(tx.rs) }

// WriteSetLen reports the current number of write-set entries (one per
// unique address written).
func (tx *Tx) WriteSetLen() int { return len(tx.ws) }

// alignFootprint re-anchors a partition-local transaction's snapshots to a
// single common instant when a new partition p joins the footprint, and
// returns p's snapshot. If nothing has committed in any touched partition
// since its snapshot was taken — checked via the O(1) cross-partition
// epoch, then the touched partitions' counters — the read set is
// trivially still current and p's fresh sample shares the same instant.
// Otherwise the snapshots are extended together (full read-set
// validation), which either establishes a fresh common instant or aborts,
// and the sample-and-check is retried. This is what keeps transactions
// spanning partitions serializable when commit time is per-partition:
// without it, two partitions' snapshots could straddle a writer that
// committed between them.
//
// Ordering matters: p's counter is sampled BEFORE the staleness checks.
// A cross-partition writer bumps the epoch before ticking any counter
// (clock.PartitionLocal.Commit), so any writer whose tick the sample
// already covers — i.e. whose new versions the fresh snapshot would
// accept — is guaranteed to be visible to the epoch load that follows,
// and a writer confined to a touched partition is caught by that
// partition's counter comparison. Checking first and sampling after would
// let a writer that commits between the two slip half-visible through.
func (tx *Tx) alignFootprint(p *Partition) uint64 {
	// The retry budget breaks a livelock this loop is otherwise open to:
	// any commit in a touched partition — or any cross-partition commit
	// anywhere (epoch) — between an extension and the re-check dirties the
	// check again, and unlike the per-orec conflict loops there is no
	// single contended word whose release would end the wait. After a few
	// rounds, abort and let the engine's randomized backoff desynchronize
	// the attempt (and release any held locks in the meantime).
	const retryBudget = 8
	for try := 0; ; try++ {
		snap := tx.tb.Now(uint32(p.id))
		dirty := tx.tb.Epoch() != tx.beginEpoch
		if !dirty {
			for i := range tx.touched {
				if tx.tb.Now(uint32(tx.touched[i].p.id)) != tx.touched[i].snap {
					dirty = true
					break
				}
			}
		}
		if !dirty {
			return snap
		}
		if try >= retryBudget || !tx.extend() {
			tx.abort(AbortValidation)
		}
	}
}

// tick counts one transactional operation; the count reaches other threads
// only when one of them can need it (publishOwner).
func (tx *Tx) tick() {
	tx.opCount++
	if m := tx.eng.yieldMask.Load(); m != 0 && tx.th.nextRand()&m == 0 {
		runtime.Gosched()
	}
}

// ordinal returns this Run's CMTimestamp ordinal, drawn from the engine's
// sequence on first use and kept across retries (older still wins); a Run
// that never meets a CMTimestamp partition never touches the shared word.
func (tx *Tx) ordinal() uint64 {
	if tx.seq == 0 {
		tx.seq = tx.eng.txSeq.Add(1)
		tx.th.beginSeq.Store(tx.seq)
	}
	return tx.seq
}

// publishOwner publishes what ps's contention manager lets a challenger
// read about a lock owner — karma's operation count, timestamp's ordinal —
// just before the lock CAS that can make this attempt an owner in ps, so
// whoever sees the lock also sees the state. A challenger only consults
// the owner of an orec of its own partition, under that partition's policy.
func (tx *Tx) publishOwner(ps *partState) {
	switch ps.cfg.CM {
	case CMKarma:
		tx.th.progress.Store(tx.opCount)
	case CMTimestamp:
		tx.ordinal()
	}
}

// Load transactionally reads the word at addr.
func (tx *Tx) Load(addr memory.Addr) uint64 {
	tx.checkKilled()
	tx.tick()
	p := tx.eng.partOf(tx.topo, addr)
	ps := p.loadState()
	ti := tx.touch(p, false)
	tx.touched[ti].loads++

	// Read-after-write: buffered values win; write-through values are
	// already in memory and flow through the normal paths below.
	if v, ok := tx.wsBuffered(addr); ok {
		return v
	}

	o := ps.table.of(addr)
	// Snapshot-mode reads are invisible by nature regardless of the
	// partition's read mode: they never validate at commit (they serialize
	// at the pinned snapshot, not at commit time), so registering in
	// reader bitmaps would only make writers wait or kill us for no
	// protocol benefit.
	if ps.cfg.Read == VisibleReads && !tx.snapMode {
		tx.hasVisible = true
		return tx.loadVisible(ps, o, addr, ti)
	}
	return tx.loadInvisible(ps, o, addr, ti)
}

// wsBuffered returns the transaction's own buffered value for addr, when
// a write-back or commit-time write covers it (read-after-write).
func (tx *Tx) wsBuffered(addr memory.Addr) (uint64, bool) {
	if len(tx.ws) > 0 {
		if i := tx.wsFind(addr); i >= 0 && tx.ws[i].mode != modeWT {
			return tx.ws[i].val, true
		}
	}
	return 0, false
}

// loadInvisible implements the timestamp-validated invisible read: sample
// lock word, read value, resample; extend the snapshot when the version is
// newer than it. ti indexes the partition's entry in tx.touched, whose
// snap is the snapshot the version is checked against (the global
// snapshot mirrored there under the global time base).
func (tx *Tx) loadInvisible(ps *partState, o *orec, addr memory.Addr, ti int) uint64 {
	spins := 0
	// probedHead caches the store's append counter across spin iterations:
	// a lookup that missed can only start hitting after a new record lands,
	// so a repeat probe is skipped until the counter moves.
	probedHead := ^uint64(0)
	for {
		l1 := o.lock.Load()
		if isLocked(l1) {
			if lockOwner(l1) == tx.th.slot {
				// Self-locked: for WB the buffered value was returned by the
				// caller's write-set probe; reaching here means a different
				// word sharing the orec, whose memory is stable under our
				// own lock. For WT the current value is in memory.
				return tx.eng.arena.LoadAtomic(addr)
			}
			// Snapshot mode: the writer holding this orec cannot change
			// history at our pinned snapshot. If a retained record covers
			// the snapshot, read past the lock without waiting; the common
			// sequence is lock → (writer appends, releases) → our probe
			// hits on the freshly appended record. Otherwise just wait:
			// a snapshot reader holds no locks and no reader bits, so no
			// transaction can ever be waiting on it — waiting out the
			// owner is deadlock-free and, unlike the contention manager's
			// bounded spin, never turns a lock conflict into an abort.
			if tx.snapMode {
				if ps.hist != nil {
					if h := ps.hist.Head(); h != probedHead {
						probedHead = h
						if hv, ok := tx.snapRead(ps, addr, ti); ok {
							return hv
						}
					}
				}
				tx.checkKilled()
				spins++
				tx.stall(spins, ps.cfg.SpinBudget, ti)
				continue
			}
			tx.cmConflict(ps, o, l1, AbortLockedOnRead, &spins, ti)
			continue
		}
		v := tx.eng.arena.LoadAtomic(addr)
		if o.lock.Load() != l1 {
			spins++
			continue
		}
		if ver := versionOf(l1); ver > tx.touched[ti].snap {
			// A commit moved the orec past the snapshot. In snapshot mode,
			// reconstruct the value at the snapshot from the partition's
			// multi-version store; the covering record exists unless the
			// ring has evicted it (then fall back to the validate/extend
			// path — correctness never depends on retention). A miss is
			// counted whether the record was evicted or no store exists at
			// all: SnapMisses is the partition's unserved snapshot demand,
			// which is what the tuner's AdaptSnapshot heuristic keys
			// attachment and retention growth on.
			if tx.snapMode {
				if ps.hist != nil {
					if hv, ok := tx.snapRead(ps, addr, ti); ok {
						return hv
					}
				}
				tx.touched[ti].snapMisses++
			}
			if !tx.extend() {
				tx.abort(AbortValidation)
			}
			continue // re-read under the extended snapshot
		}
		tx.logRead(ps, o, versionOf(l1))
		return v
	}
}

// logRead records a read of orec o that observed version ver, valid at the
// snapshot. The first attempt of a snapshot-mode Run keeps no read set on a
// store-backed partition: it pins the snapshot instead (see Tx.unlogged).
//
// Otherwise, dedup per orec: a repeat read of an orec whose recorded
// version still matches adds nothing to validate — the read set stays
// bounded by the unique orecs touched, not the loads executed. (A version
// mismatch on a repeat read cannot pass the callers' snapshot check — any
// commit to the orec postdates the snapshot — but if it ever did,
// appending a second entry keeps validation exact, and the index is
// repointed at it so the next repeat dedups against the newer version.)
// The first touch of an orec — the common case of a large scan — costs a
// filter test while the set is small and one find-or-insert probe after.
func (tx *Tx) logRead(ps *partState, o *orec, ver uint64) {
	if tx.unlogged && ps.hist != nil {
		tx.pinned = true
		return
	}
	k, n := orecKey(o), len(tx.rs)
	if !tx.rsIdx.live() && n < rsSmallMax {
		if tx.rsIdx.hint(k) {
			for i := range tx.rs {
				if tx.rs[i].o == o && tx.rs[i].ver == ver {
					return
				}
			}
		}
		tx.rsIdx.mark(k)
	} else {
		if tx.rsIdx.full() {
			// The set outgrows the scan, or the table: (re)build the index.
			tx.rsIdx.grow(n + 1)
			for i := range tx.rs {
				tx.rsIdx.put(orecKey(tx.rs[i].o), i)
			}
		}
		s, found := tx.rsIdx.probe(k)
		if found && tx.rs[s.pos].ver == ver {
			return
		}
		s.pos = int32(n)
	}
	tx.rs = append(tx.rs, readEntry{o: o, ver: ver})
}

// loadVisible implements the visible read: register in the orec's reader
// bitmap, re-check the lock, and pin the location until commit/abort. The
// version check against the snapshot is kept so that a transaction mixing
// visible and invisible partitions still observes one consistent snapshot
// (opacity); visible entries themselves never need commit validation.
func (tx *Tx) loadVisible(ps *partState, o *orec, addr memory.Addr, ti int) uint64 {
	bit := tx.th.readerBit()
	spins := 0
	for {
		l := o.lock.Load()
		if isLocked(l) {
			if lockOwner(l) == tx.th.slot {
				return tx.eng.arena.LoadAtomic(addr)
			}
			tx.cmConflict(ps, o, l, AbortLockedOnRead, &spins, ti)
			continue
		}
		old := o.readers.Or(bit)
		mine := old&bit != 0
		if !mine {
			tx.vreads = append(tx.vreads, o)
		}
		l2 := o.lock.Load()
		if isLocked(l2) {
			// A writer slipped in between the check and the registration;
			// withdraw and arbitrate.
			if !mine {
				o.readers.And(^bit)
				tx.vreads = tx.vreads[:len(tx.vreads)-1]
			}
			tx.cmConflict(ps, o, l2, AbortLockedOnRead, &spins, ti)
			continue
		}
		if ver := versionOf(l2); ver > tx.touched[ti].snap {
			if !tx.extend() {
				tx.abort(AbortValidation)
			}
			// Snapshot now covers the version; the bit pins the location.
		}
		return tx.eng.arena.LoadAtomic(addr)
	}
}

// Store transactionally writes v to addr.
func (tx *Tx) Store(addr memory.Addr, v uint64) {
	tx.checkKilled()
	tx.tick()
	if tx.readOnly {
		tx.abort(AbortUpgrade)
	}
	p := tx.eng.partOf(tx.topo, addr)
	ps := p.loadState()
	ti := tx.touch(p, true)
	tx.touched[ti].stores++
	if ps.cfg.Read == VisibleReads {
		tx.hasVisible = true
	}
	o := ps.table.of(addr)
	mode := ps.cfg.writeMode()
	if mode != modeCTL {
		tx.acquire(ps, o, ti)
	}
	tx.wsPut(addr, v, o, ps, mode)
}

// writeMode is how a write to a partition configured by c reaches memory.
func (c *PartConfig) writeMode() writeMode {
	switch {
	case c.Acquire == CommitTime:
		return modeCTL
	case c.Write == WriteBack:
		return modeWB
	default:
		return modeWT
	}
}

// wsPut records the write of v to addr: buffered in the write set (WB/CTL),
// or stored in place under the already-held lock with the pre-image kept
// for undo by the address's first write (WT).
func (tx *Tx) wsPut(addr memory.Addr, v uint64, o *orec, ps *partState, mode writeMode) {
	en, fresh := tx.wsEntry(addr)
	if fresh {
		en.o, en.ps, en.mode = o, ps, mode
		if mode == modeWT {
			en.old = tx.eng.arena.LoadAtomic(addr)
		}
	}
	if mode == modeWT {
		tx.eng.arena.StoreAtomic(addr, v)
	} else {
		en.val = v
	}
}

// blockChunk bounds a multi-word access at the enclosing heap block: all
// words of one block share a site, hence a partition, so per-chunk state
// (partition, orec table, stats block, touch entry) is resolved once.
func (tx *Tx) blockChunk(addr memory.Addr, n int) int {
	blockWords := uint64(1) << tx.eng.blockShift
	rem := blockWords - (uint64(addr) & (blockWords - 1))
	if uint64(n) > rem {
		return int(rem)
	}
	return n
}

// LoadWords transactionally reads the len(dst) consecutive words starting
// at addr into dst. It is equivalent to len(dst) calls of Load but pays
// the per-access overhead (partition lookup, footprint touch, statistics)
// once per object instead of once per word. An attempt that has written
// nothing yet (every read-only one) reads up to sweepWords words in one
// sweep: sample every word's orec, load every word, re-sample every orec;
// each word is then certified by two identical unlocked samples of its own
// orec at or below the snapshot, and the read set gets one entry per
// distinct orec (or, on a pinned snapshot attempt, none). A locked, stale
// or changed orec sends that window to the per-orec path, which also
// serves attempts with buffered writes: words sharing an ownership record
// are read under a single lock-sample/re-sample pair with one read-set
// entry, and — in snapshot mode — a whole object is reconstructed from
// the partition's multi-version store with one index probe when it was
// written by a single commit (mvstore.ReadRangeAt). This is the primitive
// behind the typed object layer (stm.Ref).
func (tx *Tx) LoadWords(addr memory.Addr, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	tx.checkKilled()
	tx.tick()
	for len(dst) > 0 {
		c := tx.blockChunk(addr, len(dst))
		tx.loadWordsChunk(addr, dst[:c])
		addr += memory.Addr(c)
		dst = dst[c:]
	}
}

// sweepWords is the window of one LoadWords sweep: its orecs and lock
// samples live in stack arrays of this many entries.
const sweepWords = 16

// loadWordsChunk reads a word range confined to one heap block (one
// partition), a sweep per window when nothing is buffered, else per orec.
func (tx *Tx) loadWordsChunk(addr memory.Addr, dst []uint64) {
	p := tx.eng.partOf(tx.topo, addr)
	ps := p.loadState()
	ti := tx.touch(p, false)
	tx.touched[ti].loads += uint64(len(dst))
	if ps.cfg.Read == VisibleReads && !tx.snapMode {
		tx.hasVisible = true
		for i := range dst {
			a := addr + memory.Addr(i)
			if v, ok := tx.wsBuffered(a); ok {
				dst[i] = v
				continue
			}
			dst[i] = tx.loadVisible(ps, ps.table.of(a), a, ti)
		}
		return
	}
	if len(tx.ws) > 0 {
		tx.loadGroups(ps, addr, dst, ti)
		return
	}
	for len(dst) > 0 {
		c := min(len(dst), sweepWords)
		if !tx.sweep(ps, addr, dst[:c], ti) {
			tx.loadGroups(ps, addr, dst[:c], ti)
		}
		addr += memory.Addr(c)
		dst = dst[c:]
	}
}

// sweep reads dst (at most sweepWords words) in three passes and reports
// whether every word was certified; on false the caller re-reads dst on
// the per-orec path, which owns every conflict case.
func (tx *Tx) sweep(ps *partState, addr memory.Addr, dst []uint64, ti int) bool {
	var lbuf [sweepWords]uint64
	var obuf [sweepWords]*orec
	t, snap := ps.table, tx.touched[ti].snap
	ls, orecs := lbuf[:len(dst)], obuf[:len(dst)]
	for i := range orecs {
		o := t.of(addr + memory.Addr(i))
		l := o.lock.Load()
		if isLocked(l) || versionOf(l) > snap {
			return false
		}
		orecs[i], ls[i] = o, l
	}
	for i := range dst {
		dst[i] = tx.eng.arena.LoadAtomic(addr + memory.Addr(i))
	}
	for i, o := range orecs {
		if o.lock.Load() != ls[i] {
			return false
		}
	}
	if tx.unlogged && ps.hist != nil {
		tx.pinned = true
		return true
	}
	var last *orec
	for i, o := range orecs {
		if o != last {
			tx.logRead(ps, o, versionOf(ls[i]))
			last = o
		}
	}
	return true
}

// loadGroups is the per-orec read of dst: consecutive words sharing an
// orec form one group read by loadGroup, and buffered writes
// (read-after-write) are honored per word.
func (tx *Tx) loadGroups(ps *partState, addr memory.Addr, dst []uint64, ti int) {
	probeWS := len(tx.ws) > 0
	i := 0
	for i < len(dst) {
		a := addr + memory.Addr(i)
		if probeWS {
			if v, ok := tx.wsBuffered(a); ok {
				dst[i] = v
				i++
				continue
			}
		}
		o := ps.table.of(a)
		end := i + 1
		for end < len(dst) {
			na := addr + memory.Addr(end)
			if ps.table.of(na) != o {
				break
			}
			if probeWS {
				if _, ok := tx.wsBuffered(na); ok {
					break
				}
			}
			end++
		}
		i = tx.loadGroup(ps, o, addr, dst, i, end, ti)
	}
}

// loadGroup is loadInvisible generalized to the group [i, end) of
// consecutive words sharing orec o: the group is read between one lock
// sample and one re-sample and contributes one read-set entry. In
// snapshot mode, when o has moved past (or is locked ahead of) the pinned
// snapshot, reconstruction is attempted for the WHOLE remaining range
// [i, len(dst)) in one mvstore range lookup — for an object written by a
// single commit that is one index probe instead of one per word — and
// then for the stale group alone (snapReadFrom). It returns the next
// unserved position.
func (tx *Tx) loadGroup(ps *partState, o *orec, addr memory.Addr, dst []uint64, i, end, ti int) int {
	spins := 0
	probedHead := ^uint64(0)
	for {
		l1 := o.lock.Load()
		if isLocked(l1) {
			if lockOwner(l1) == tx.th.slot {
				// Self-locked: memory is stable under our own lock (WB
				// buffered values were peeled off by the caller).
				for j := i; j < end; j++ {
					dst[j] = tx.eng.arena.LoadAtomic(addr + memory.Addr(j))
				}
				return end
			}
			if !tx.snapMode {
				tx.cmConflict(ps, o, l1, AbortLockedOnRead, &spins, ti)
				continue
			}
			// As in the per-word snapshot read: reconstruct past the lock
			// if the store covers the snapshot, else wait the owner out
			// (deadlock-free — snapshot readers hold no locks or bits).
			if ps.hist != nil {
				if h := ps.hist.Head(); h != probedHead {
					probedHead = h
					if n := tx.snapReadFrom(ps, addr, dst, i, end, ti); n > i {
						return n
					}
				}
			}
			tx.checkKilled()
			spins++
			tx.stall(spins, ps.cfg.SpinBudget, ti)
			continue
		}
		for j := i; j < end; j++ {
			dst[j] = tx.eng.arena.LoadAtomic(addr + memory.Addr(j))
		}
		if o.lock.Load() != l1 {
			spins++
			continue
		}
		if ver := versionOf(l1); ver > tx.touched[ti].snap {
			if tx.snapMode {
				if ps.hist != nil {
					if n := tx.snapReadFrom(ps, addr, dst, i, end, ti); n > i {
						return n
					}
				}
				tx.touched[ti].snapMisses += uint64(end - i)
			}
			if !tx.extend() {
				tx.abort(AbortValidation)
			}
			continue // re-read under the extended snapshot
		}
		tx.logRead(ps, o, versionOf(l1)) // one entry per orec, not per word
		return end
	}
}

// snapReadFrom reconstructs dst[i:] — or, failing that, only the group
// dst[i:end) whose orec is stale — at the partition's snapshot from the
// multi-version store, and returns the next unserved position (i on a
// miss). The narrower retry serves a commit that wrote only part of an
// object: the unwritten words have no record, so the all-or-nothing range
// read fails, yet their own orecs are fresh and the caller's loop reads
// them from memory.
func (tx *Tx) snapReadFrom(ps *partState, addr memory.Addr, dst []uint64, i, end, ti int) int {
	base, snap := uint64(addr)+uint64(i), tx.touched[ti].snap
	n := len(dst)
	if !ps.hist.ReadRangeAt(base, snap, dst[i:]) {
		if end == n || !ps.hist.ReadRangeAt(base, snap, dst[i:end]) {
			return i
		}
		n = end
	}
	tx.touched[ti].snapHits += uint64(n - i)
	tx.pinned = true
	return n
}

// StoreWords transactionally writes the len(src) consecutive words
// starting at addr. Equivalent to len(src) calls of Store, with the
// per-access overhead paid once per object and the write lock of an
// ownership record shared by consecutive words taken once. Committing a
// StoreWords-written object publishes its history records back to back,
// which is what lets snapshot readers reconstruct it with one index probe
// (see mvstore.ReadRangeAt).
func (tx *Tx) StoreWords(addr memory.Addr, src []uint64) {
	if len(src) == 0 {
		return
	}
	tx.checkKilled()
	tx.tick()
	if tx.readOnly {
		tx.abort(AbortUpgrade)
	}
	for len(src) > 0 {
		c := tx.blockChunk(addr, len(src))
		tx.storeWordsChunk(addr, src[:c])
		addr += memory.Addr(c)
		src = src[c:]
	}
}

// storeWordsChunk writes a word range confined to one heap block (one
// partition).
func (tx *Tx) storeWordsChunk(addr memory.Addr, src []uint64) {
	p := tx.eng.partOf(tx.topo, addr)
	ps := p.loadState()
	ti := tx.touch(p, true)
	tx.touched[ti].stores += uint64(len(src))
	if ps.cfg.Read == VisibleReads {
		tx.hasVisible = true
	}
	mode := ps.cfg.writeMode()
	var held *orec // last orec acquired by this chunk: skip re-acquisition
	for i := range src {
		a := addr + memory.Addr(i)
		o := ps.table.of(a)
		if mode != modeCTL && o != held {
			tx.acquire(ps, o, ti)
			held = o
		}
		tx.wsPut(a, src[i], o, ps, mode)
	}
}

// rangeChunkWords is LoadRange's internal buffer size: scans stream
// through the multi-word read path in chunks of this many words.
const rangeChunkWords = 64

// LoadRange transactionally reads the n consecutive words starting at
// addr, calling fn(i, v) for word i holding v, in order; fn returning
// false stops the scan. It streams through the LoadWords path, so long
// scans inherit its per-object amortization (and, in snapshot mode, the
// grouped store reconstruction) without the caller materializing a
// destination slice.
func (tx *Tx) LoadRange(addr memory.Addr, n int, fn func(i int, v uint64) bool) {
	var buf [rangeChunkWords]uint64
	for i := 0; i < n; {
		c := n - i
		if c > rangeChunkWords {
			c = rangeChunkWords
		}
		tx.LoadWords(addr+memory.Addr(i), buf[:c])
		for j := 0; j < c; j++ {
			if !fn(i+j, buf[j]) {
				return
			}
		}
		i += c
	}
}

// acquire takes the orec's write lock at encounter time, draining visible
// readers per the partition's reader policy. ti indexes the partition in
// tx.touched (for its snapshot).
func (tx *Tx) acquire(ps *partState, o *orec, ti int) {
	spins := 0
	for {
		l := o.lock.Load()
		if isLocked(l) {
			if lockOwner(l) == tx.th.slot {
				return
			}
			tx.cmConflict(ps, o, l, AbortLockedOnWrite, &spins, ti)
			continue
		}
		if versionOf(l) > tx.touched[ti].snap && len(tx.rs) > 0 {
			// The location moved past our snapshot; extend now so commit
			// validation is not doomed.
			if !tx.extend() {
				tx.abort(AbortValidation)
			}
		}
		tx.publishOwner(ps)
		if o.lock.CompareAndSwap(l, lockWordFor(tx.th.slot)) {
			tx.locks = append(tx.locks, lockRec{o: o, prev: l, pid: ps.part.id})
			if ps.cfg.Read == VisibleReads {
				tx.drainReaders(ps, o, ti)
			}
			return
		}
	}
}

// drainReaders resolves write-vs-visible-reader conflicts after the lock
// is held: either kill the registered readers and wait for their bits to
// clear, or yield (abort self) per the partition's reader policy.
func (tx *Tx) drainReaders(ps *partState, o *orec, ti int) {
	bit := tx.th.readerBit()
	spins := 0
	for {
		r := o.readers.Load() &^ bit
		if r == 0 {
			return
		}
		if ps.cfg.ReaderCM == WriterKillsReaders {
			for r != 0 {
				s := bits.TrailingZeros64(r)
				r &^= uint64(1) << uint(s)
				if other := tx.eng.threadBySlot(s); other != nil && other != tx.th {
					other.kill()
				}
			}
			// The killed readers need the processor to notice and clear
			// their bits: an unbounded wait, so the full spin→yield→park
			// escalation applies.
			spins++
			tx.stall(spins, ps.cfg.SpinBudget, ti)
			tx.checkKilled() // we may be a visible reader elsewhere, under attack
			continue
		}
		// WriterYieldsToReaders: bounded patience, then step aside.
		spins++
		if spins > ps.cfg.SpinBudget {
			tx.abort(AbortReaderWall)
		}
		tx.stall(spins, ps.cfg.SpinBudget, ti)
		tx.checkKilled()
	}
}

// cmConflict arbitrates a lock conflict per the partition's CM policy. It
// either returns (caller retries the protocol loop) or aborts by panic.
func (tx *Tx) cmConflict(ps *partState, o *orec, l uint64, cause AbortCause, spins *int, ti int) {
	tx.checkKilled()
	switch ps.cfg.CM {
	case CMSuicide:
		tx.abort(cause)
	case CMSpin:
		*spins++
		if *spins > ps.cfg.SpinBudget {
			tx.abort(cause)
		}
		tx.stall(*spins, ps.cfg.SpinBudget, ti)
	case CMKarma:
		owner := tx.eng.threadBySlot(lockOwner(l))
		*spins++
		if owner == nil {
			if *spins > ps.cfg.SpinBudget {
				tx.abort(cause)
			}
			tx.stall(*spins, ps.cfg.SpinBudget, ti)
			return
		}
		if tx.opCount > owner.progress.Load() {
			owner.kill()
			if *spins > 8*ps.cfg.SpinBudget {
				tx.abort(cause) // victim is not dying; give up
			}
			// The victim needs the processor to notice the kill; past the
			// budget, stall yields it ours.
			tx.stall(*spins, ps.cfg.SpinBudget, ti)
			return
		}
		if *spins > ps.cfg.SpinBudget {
			tx.abort(cause)
		}
		tx.stall(*spins, ps.cfg.SpinBudget, ti)
	case CMAggressive:
		owner := tx.eng.threadBySlot(lockOwner(l))
		if owner != nil {
			owner.kill()
		}
		*spins++
		if *spins > 8*ps.cfg.SpinBudget {
			tx.abort(cause)
		}
		tx.stall(*spins, ps.cfg.SpinBudget, ti)
	case CMBackoff:
		*spins++
		tx.touched[ti].wait.cycles++
		if *spins > ps.cfg.SpinBudget {
			tx.abort(cause)
		}
		// Randomized exponential pause: busy-wait a jittered
		// 2^min(spins,10)-bounded number of spin quanta between probes of
		// the lock word, so hot orecs see far fewer cache-line reads. The
		// pause is pure spinning (spinWait — a real pause the compiler
		// cannot delete); yield to the scheduler only once per long pause
		// (a Gosched per iteration costs more than the lock hold times it
		// waits out).
		shift := *spins
		if shift > 10 {
			shift = 10
		}
		pause := tx.th.nextRand() & ((uint64(1) << uint(shift)) - 1)
		spinWait(pause)
		if pause > 256 {
			runtime.Gosched()
		}
	case CMTimestamp:
		owner := tx.eng.threadBySlot(lockOwner(l))
		*spins++
		if owner == nil || owner == tx.th {
			if *spins > ps.cfg.SpinBudget {
				tx.abort(cause)
			}
			tx.stall(*spins, ps.cfg.SpinBudget, ti)
			return
		}
		if tx.ordinal() < owner.beginSeq.Load() {
			// We are older: kill the owner and wait for the lock to drain
			// (stall yields past the budget so the victim can run and die).
			owner.kill()
			if *spins > 8*ps.cfg.SpinBudget {
				tx.abort(cause) // victim is not dying; give up
			}
			tx.stall(*spins, ps.cfg.SpinBudget, ti)
			return
		}
		// We are younger: wait briefly for the elder, then step aside.
		if *spins > ps.cfg.SpinBudget {
			tx.abort(cause)
		}
		tx.stall(*spins, ps.cfg.SpinBudget, ti)
	default:
		tx.abort(cause)
	}
}

// snapRead attempts to serve a snapshot-mode read of addr at the pinned
// partition snapshot from the multi-version store. A hit pins the
// snapshot for the rest of the attempt (see extend).
func (tx *Tx) snapRead(ps *partState, addr memory.Addr, ti int) (uint64, bool) {
	v, ok := ps.hist.ReadAt(uint64(addr), tx.touched[ti].snap)
	if ok {
		tx.touched[ti].snapHits++
		tx.pinned = true
	}
	return v, ok
}

// extend attempts a snapshot extension: validate the invisible read set
// and, on success, move the snapshot(s) forward. The new snapshots are
// sampled before validating (TL2 order): a commit that lands between the
// sample and the validation carries a version above the new snapshot, so
// later reads of it re-trigger extension — validation passing means every
// read was current at some instant at or after the sample.
//
// A pinned snapshot-mode attempt — one that has reconstructed a read from
// the multi-version store, or served one without logging it (Tx.unlogged)
// — refuses extension: reconstructed values are correct only at the pinned
// instant and unlogged reads cannot be revalidated, so moving the snapshot
// would mix two instants. The caller then aborts and the retry, which logs
// every read, samples a fresher snapshot.
func (tx *Tx) extend() bool {
	if tx.pinned {
		return false
	}
	if tx.pl {
		return tx.extendPartitionLocal()
	}
	// No "clock unchanged" short-circuit here: every extension trigger has
	// already observed a version above the snapshot, and versions never
	// exceed the clock, so the fresh sample always postdates the snapshot.
	// The reachable form of that optimization lives at commit time
	// (assignWriteVersions), where validation is skipped when no foreign
	// commit has landed in the footprint.
	now := tx.tb.Now(0)
	if !tx.validate() {
		return false
	}
	tx.snapshot = now
	for i := range tx.touched {
		tx.touched[i].snap = now
	}
	return true
}

// extendPartitionLocal is extension under the partition-local time base:
// all touched partitions' snapshots (and the epoch anchor) move forward
// together, so a successful extension re-establishes one common instant
// at which the entire read set is valid.
func (tx *Tx) extendPartitionLocal() bool {
	ep := tx.tb.Epoch()
	n := len(tx.touched)
	if cap(tx.extSnaps) < n {
		tx.extSnaps = make([]uint64, n)
	}
	s := tx.extSnaps[:n]
	for i := range tx.touched {
		s[i] = tx.tb.Now(uint32(tx.touched[i].p.id))
	}
	// As in extend, a "counters and epoch unchanged" short-circuit would be
	// dead code here: every caller (alignFootprint's dirty path, a version
	// above a per-partition snapshot) has already observed monotone clock
	// state past the anchors. Commit-time validation has the reachable
	// equivalent (assignWriteVersions).
	if !tx.validate() {
		return false
	}
	for i := range tx.touched {
		tx.touched[i].snap = s[i]
	}
	tx.beginEpoch = ep
	if n > 0 {
		tx.snapshot = tx.touched[0].snap
	}
	return true
}

// validate checks every invisible read entry: the orec must carry the
// version observed at read time, or be locked by this transaction with an
// unchanged pre-image.
func (tx *Tx) validate() bool {
	for i := range tx.rs {
		en := &tx.rs[i]
		l := en.o.lock.Load()
		if isLocked(l) {
			if lockOwner(l) != tx.th.slot {
				return false
			}
			prev, ok := tx.prevFor(en.o)
			if !ok || versionOf(prev) != en.ver {
				return false
			}
			continue
		}
		if versionOf(l) != en.ver {
			return false
		}
	}
	return true
}

// prevFor returns the pre-acquisition lock word of an orec this
// transaction holds (O(1) via the lock-set index for large lock sets).
func (tx *Tx) prevFor(o *orec) (uint64, bool) {
	if i := tx.lkFind(o); i >= 0 {
		return tx.locks[i].prev, true
	}
	return 0, false
}

// commit finishes the transaction: commit-time lock acquisition (CTL
// partitions), write-version assignment by the time base, read-set
// validation, write-back, lock release, visible-reader deregistration,
// bookkeeping.
func (tx *Tx) commit() {
	tx.checkKilled()
	if len(tx.ws) == 0 && len(tx.locks) == 0 {
		// Read-only commit. Invisible entries were continuously valid at
		// the snapshot; if any visible-mode partition was touched the
		// serialization point is commit time, so validate the invisible
		// entries against it.
		if tx.hasVisible && len(tx.rs) > 0 && !tx.validate() {
			tx.abort(AbortValidation)
		}
		tx.finish(AbortNone)
		return
	}
	for i := range tx.ws {
		en := &tx.ws[i]
		if en.mode == modeCTL {
			tx.acquireAtCommit(en)
		}
	}
	if tx.assignWriteVersions() || tx.hasVisible {
		if !tx.validate() {
			tx.abort(AbortValidation)
		}
	}
	tx.appendHistory()
	tx.teeWAL()
	for i := range tx.ws {
		en := &tx.ws[i]
		if en.mode != modeWT {
			tx.eng.arena.StoreAtomic(en.addr, en.val)
		}
	}
	if tx.pl {
		for i := range tx.locks {
			tx.locks[i].o.lock.Store(versionWord(tx.wvFor(tx.locks[i].pid)))
		}
	} else {
		wv := versionWord(tx.commitWV[0])
		for i := range tx.locks {
			tx.locks[i].o.lock.Store(wv)
		}
	}
	tx.finish(AbortNone)
}

// assignWriteVersions asks the time base for this commit's write versions
// — one per written partition, deduplicated from the lock set — and
// reports whether read-set validation is required before write-back.
//
// Under the global time base the classic TL2 rule applies: skip
// validation only when the single counter moved exactly one past our
// snapshot (no foreign commit in between). Under the partition-local time
// base the rule generalizes per partition across the whole footprint: all
// per-partition snapshots are anchored at one common instant (begin,
// alignFootprint, extension), and an orec can only change when a commit
// ticks its partition's counter — so if every written partition's assigned
// version is exactly one past its snapshot (our own tick) and every
// read-only touched partition's counter still equals its snapshot, no
// foreign commit has landed anywhere in the footprint since the anchor and
// the read set is trivially valid at the commit point. The counters are
// sampled while every write lock is held and a writer ticks before it
// publishes versions, so a foreign commit that escapes the sample
// serializes after this one. The time base is invoked while every write
// lock is held and before any is released, so the cross-partition epoch
// bump is visible before the new versions are (the ordering the alignment
// check relies on).
func (tx *Tx) assignWriteVersions() bool {
	if !tx.pl {
		// Global counter: one tick covers every lock regardless of
		// partition — skip the dedup scan entirely (this is the hottest
		// path in the default configuration).
		tx.commitParts = append(tx.commitParts[:0], uint32(GlobalPartition))
		if cap(tx.commitWV) < 1 {
			tx.commitWV = make([]uint64, 1)
		}
		tx.commitWV = tx.commitWV[:1]
		tx.tb.Commit(tx.commitParts, tx.commitWV)
		return tx.commitWV[0] > tx.snapshot+1
	}
	tx.commitParts = tx.commitParts[:0]
	for i := range tx.locks {
		pid := uint32(tx.locks[i].pid)
		dup := false
		for _, q := range tx.commitParts {
			if q == pid {
				dup = true
				break
			}
		}
		if !dup {
			tx.commitParts = append(tx.commitParts, pid)
		}
	}
	n := len(tx.commitParts)
	if cap(tx.commitWV) < n {
		tx.commitWV = make([]uint64, n)
	}
	tx.commitWV = tx.commitWV[:n]
	tx.tb.Commit(tx.commitParts, tx.commitWV)
	// Mirror the versions into a pid-indexed table so the release loop
	// looks each lock's version up in O(1) (wvFor). Stale entries from
	// earlier commits are harmless: wvFor is only asked about partitions
	// registered by this commit, which were just overwritten.
	if len(tx.wvByPid) < len(tx.topo.parts) {
		tx.wvByPid = make([]uint64, len(tx.topo.parts))
	}
	for i, pid := range tx.commitParts {
		tx.wvByPid[pid] = tx.commitWV[i]
	}
	for i := range tx.touched {
		pid := uint32(tx.touched[i].p.id)
		written := false
		for _, q := range tx.commitParts {
			if q == pid {
				written = true
				break
			}
		}
		if written {
			if tx.wvByPid[pid] != tx.touched[i].snap+1 {
				return true
			}
		} else if tx.tb.Now(pid) != tx.touched[i].snap {
			return true
		}
	}
	return false
}

// wvFor returns the write version assigned to partition pid by
// assignWriteVersions.
func (tx *Tx) wvFor(pid PartID) uint64 {
	return tx.wvByPid[pid]
}

// appendHistory publishes one multi-version record per written address
// into each written partition's snapshot store (skipped entirely for
// partitions with no store). It must run after assignWriteVersions (the
// records carry this commit's write versions), before write-back (the
// pre-image of a buffered write is still in memory), and before any lock
// release (a reader that observes the new orec version must be able to
// find the record) — i.e. exactly here in the commit sequence.
//
// Records are grouped per partition — one pass over the write set,
// bucketed through the O(1) partition→touched index — and published with
// one AppendBatch per written partition: a wide cross-partition commit
// issues one ring-head fetch-add per partition instead of one per
// address, and each store's publications land back to back instead of
// interleaved across rings — less store-buffer pressure exactly where
// the commit already holds every lock and wants to drain fast.
func (tx *Tx) appendHistory() {
	any := false
	for i := range tx.ws {
		if tx.ws[i].ps.hist != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	nt := len(tx.touched)
	if cap(tx.histRecs) < nt {
		fresh := make([][]mvstore.Record, nt)
		copy(fresh, tx.histRecs[:cap(tx.histRecs)])
		tx.histRecs = fresh
	}
	if cap(tx.histBufs) < nt {
		tx.histBufs = make([]*mvstore.Buffer, nt)
	}
	tx.histRecs = tx.histRecs[:nt]
	tx.histBufs = tx.histBufs[:nt]
	for ti := range tx.histRecs {
		tx.histRecs[ti] = tx.histRecs[ti][:0] // keep grown capacity
		tx.histBufs[ti] = nil
	}
	for i := range tx.ws {
		en := &tx.ws[i]
		if en.ps.hist == nil {
			continue
		}
		prev, ok := tx.prevFor(en.o)
		if !ok {
			continue // unreachable: every written orec is in the lock set
		}
		old := en.old // WT captured the pre-image at first write
		if en.mode != modeWT {
			old = tx.eng.arena.LoadAtomic(en.addr)
		}
		pid := en.ps.part.id
		wv := tx.commitWV[0]
		if tx.pl {
			wv = tx.wvFor(pid)
		}
		// A written partition is always in the footprint (Store touches
		// it), so touchIdx is current for this attempt.
		ti := int(tx.touchIdx[pid])
		tx.histBufs[ti] = en.ps.hist
		tx.histRecs[ti] = append(tx.histRecs[ti], mvstore.Record{
			Addr: uint64(en.addr), Val: old, PrevVer: versionOf(prev), NewVer: wv,
		})
	}
	for ti := range tx.histRecs {
		if tx.histBufs[ti] != nil {
			tx.histBufs[ti].AppendBatch(tx.histRecs[ti])
		}
	}
}

// acquireAtCommit locks a CTL entry's orec, deduplicating entries that
// share an orec and draining visible readers when required.
func (tx *Tx) acquireAtCommit(en *writeEntry) {
	// A written partition is always in the footprint (Store touches it), so
	// touchIdx is current for this attempt.
	ti := int(tx.touchIdx[en.ps.part.id])
	spins := 0
	for {
		l := en.o.lock.Load()
		if isLocked(l) {
			if lockOwner(l) == tx.th.slot {
				return // another entry already acquired this orec
			}
			tx.cmConflict(en.ps, en.o, l, AbortLockedOnWrite, &spins, ti)
			continue
		}
		tx.publishOwner(en.ps)
		if en.o.lock.CompareAndSwap(l, lockWordFor(tx.th.slot)) {
			tx.locks = append(tx.locks, lockRec{o: en.o, prev: l, pid: en.ps.part.id})
			if en.ps.cfg.Read == VisibleReads {
				tx.drainReaders(en.ps, en.o, ti)
			}
			return
		}
	}
}

// rollback undoes an attempt: restore write-through pre-images, release
// locks to their previous words, clear reader bits, recycle allocations
// made by the attempt, and record the abort cause.
func (tx *Tx) rollback(cause AbortCause) {
	for i := len(tx.ws) - 1; i >= 0; i-- {
		en := &tx.ws[i]
		if en.mode == modeWT {
			tx.eng.arena.StoreAtomic(en.addr, en.old)
		}
	}
	for i := len(tx.locks) - 1; i >= 0; i-- {
		lr := &tx.locks[i]
		lr.o.lock.Store(lr.prev)
	}
	bit := tx.th.readerBit()
	for _, o := range tx.vreads {
		o.readers.And(^bit)
	}
	for _, a := range tx.allocs {
		tx.th.alloc.Free(a.addr, a.n)
	}
	tx.finish(cause)
}

// flushStats is the one place an attempt's counters reach the thread's
// PartThreadStats blocks: what it accumulated in plain words per touched
// partition, its outcome (commit kind or abort cause) and, while latency
// tracking is on, a committed attempt's duration. Aborted attempts' accesses
// and waits count exactly as committed ones'. Zero counters are skipped:
// each add is a locked instruction.
func (tx *Tx) flushStats(cause AbortCause) {
	sts := *tx.th.stats.Load()
	if len(tx.touched) == 0 && cause != AbortNone {
		// Aborted before touching any partition (e.g. killed at the first
		// operation): attribute to the global partition so the abort is
		// not lost from the books.
		sts[GlobalPartition].Aborts[cause].Add(1)
	}
	lat := tx.timed && cause == AbortNone && tx.eng.latency.Load()
	for i := range tx.touched {
		tr := &tx.touched[i]
		st := &sts[tr.p.id]
		addNonZero(&st.Loads, tr.loads)
		addNonZero(&st.Stores, tr.stores)
		addNonZero(&st.SnapHits, tr.snapHits)
		addNonZero(&st.SnapMisses, tr.snapMisses)
		tx.snapHits += tr.snapHits
		tx.snapMisses += tr.snapMisses
		tx.flushWait(st, &tr.wait)
		switch {
		case cause != AbortNone:
			st.Aborts[cause].Add(1)
		case tr.wrote:
			st.UpdateCommits.Add(1)
		default:
			st.ROCommits.Add(1)
		}
		if lat {
			st.Lat.Record(tx.durationNs)
		}
	}
}

func addNonZero(c *atomic.Uint64, n uint64) {
	if n != 0 {
		c.Add(n)
	}
}

// finish releases per-attempt state. cause selects commit (AbortNone) vs.
// abort bookkeeping (locks/bits are handled by the caller for commits).
func (tx *Tx) finish(cause AbortCause) {
	committed := cause == AbortNone
	if tx.timed {
		// Duration measured here, not in the run loop: finish is the last
		// act of both commit and rollback, and tx.touched is still intact,
		// so committed attempts can attribute their latency per partition.
		tx.durationNs = uint64(time.Since(tx.attemptStart))
	}
	// This attempt no longer reads anything: stop pinning the horizon
	// before doing reclamation bookkeeping, so a solo thread's own retires
	// become reclaimable immediately.
	tx.eng.epochs.Clear(tx.th.slot)
	if committed {
		bit := tx.th.readerBit()
		for _, o := range tx.vreads {
			o.readers.And(^bit)
		}
		if len(tx.frees) > 0 {
			// Commit-time frees enter limbo stamped with a ceiling sampled
			// after this commit's write versions published (tb.Commit ran,
			// locks may or may not be released yet — either way the unlink
			// is at or below this reading on every timeline). They recycle
			// only once the horizon passes the stamp; contrast the abort
			// path in rollback, which recycles never-published allocations
			// immediately.
			stamp := tx.tb.Ceiling()
			for _, f := range tx.frees {
				tx.th.alloc.Retire(f.addr, f.n, stamp)
				tx.retiredWords += uint64(f.n)
			}
		}
		if tx.th.alloc.NeedsReclaim() {
			// Amortized reclamation: one horizon sweep per ReclaimBatch
			// retires (the allocator re-arms the trigger), so a stalled
			// horizon costs a bounded fraction of commit work.
			tx.reclaimedWords += tx.th.alloc.Reclaim(tx.eng.epochs.Horizon())
		}
	}
	tx.flushStats(cause)
	tx.rs = tx.rs[:0]
	tx.ws = tx.ws[:0]
	tx.locks = tx.locks[:0]
	tx.vreads = tx.vreads[:0]
	tx.allocs = tx.allocs[:0]
	tx.frees = tx.frees[:0]
	tx.touched = tx.touched[:0]
}

// Alloc allocates a fresh object of n words at the given allocation site.
// If the transaction aborts, the object is recycled automatically.
// Recycled memory retains its previous committed contents (this preserves
// opacity for concurrent snapshot readers holding stale references), so
// the caller must initialize every word transactionally before publishing
// the object.
func (tx *Tx) Alloc(site memory.SiteID, n int) memory.Addr {
	a, err := tx.th.alloc.Alloc(site, n)
	if err != nil {
		panic(err) // arena exhaustion is a configuration error, not a conflict
	}
	tx.allocs = append(tx.allocs, allocRec{addr: a, n: n})
	return a
}

// Free schedules the object at addr (n words) for reclamation if and when
// the transaction commits. The caller must already have unlinked it. The
// object does not recycle at commit: it is retired into the thread's
// limbo stamped with the commit's clock reading and reaches a free list
// only once the global horizon passes that stamp — i.e. once no live
// reader, snapshot reconstruction included, could still traverse to it.
func (tx *Tx) Free(addr memory.Addr, n int) {
	if addr == memory.Nil {
		return
	}
	tx.frees = append(tx.frees, allocRec{addr: addr, n: n})
}

// LoadAddr reads a pointer-valued word.
func (tx *Tx) LoadAddr(a memory.Addr) memory.Addr { return memory.Addr(tx.Load(a)) }

// StoreAddr writes a pointer-valued word and, during profiling runs,
// reports the site→site edge to the partition analyzer. All data-structure
// link stores must go through this method; it is the dynamic stand-in for
// the points-to edges the paper's compile-time analysis extracts.
func (tx *Tx) StoreAddr(dst memory.Addr, target memory.Addr) {
	tx.Store(dst, uint64(target))
	if target != memory.Nil && tx.eng.profiling.Load() {
		tx.eng.recordPointer(tx.eng.arena.SiteOf(dst), tx.eng.arena.SiteOf(target))
	}
}
