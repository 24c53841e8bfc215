package core

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/memory"
	"repro/internal/mvstore"
	"repro/internal/wal"
)

type readEntry struct {
	o   *orec
	ver uint64
}

type writeEntry struct {
	addr memory.Addr
	val  uint64 // new value, applied at commit
	o    *orec
	ps   *partState
}

type lockRec struct {
	o    *orec
	prev uint64
}

type allocRec struct {
	addr memory.Addr
	n    int
}

type touchRec struct {
	p     *Partition
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

	// snapshot is the commit-clock reading every read is checked against:
	// sampled at begin, moved forward only by a successful extension.
	snapshot   uint64
	readOnly   bool
	hasVisible bool
	// snapMode marks a snapshot read-only attempt (Run with Snapshot()):
	// reads are answered at the snapshot sampled at begin, and a location a
	// commit has since overwritten is reconstructed from the partition's
	// multi-version store (partState.hist) instead of extending; snapHits
	// counts the words so reconstructed (the attempt's total, summed over
	// the touched partitions by finish; see SnapshotHits).
	//
	// unlogged marks the FIRST attempt of a read-only Run (ReadOnly or
	// Snapshot), as TL2 runs its read-only transactions: a read valid at the
	// snapshot is not recorded (rs stays untouched) on an invisible
	// partition — in snapshot mode only on one with a store, whose reads
	// may also be reconstructed. pinned is set by the first such read, and
	// by every reconstructed read, logged or not: from then on the snapshot
	// cannot move (extend refuses), because unrecorded reads cannot be
	// revalidated and reconstructed values are correct only at that
	// instant. A stale read the store cannot serve then aborts the attempt
	// (AbortValidation), as does the commit of a pinned attempt that also
	// read a visible partition (its serialization point is commit time),
	// and Engine.run retries with unlogged off: retries log every read and
	// take the ordinary validate/extend path, so neither correctness nor
	// the progress of a scan over a too-small ring depends on retention.
	// Store-less partitions in snapshot mode always log — there is nothing
	// to pin against.
	snapMode bool
	unlogged bool
	pinned   bool
	snapHits uint64
	// stallMark is the clock reading of the last stall iteration (the
	// attribution scheme is documented in wait.go).
	stallMark time.Duration
	// timed marks an attempt whose duration is being measured (latency
	// tracking enabled): attemptStart is sampled at begin and durationNs
	// computed at finish, so committed attempts can record into the
	// touched partitions' latency histograms.
	timed        bool
	attemptStart time.Time
	durationNs   uint64

	rs      []readEntry
	ws      []writeEntry
	locks   []lockRec
	vreads  []*atomic.Uint64
	allocs  []allocRec
	frees   []allocRec
	touched []touchRec

	// Footprint-bounded lookup structure (txindex.go) for the write and
	// lock sets (the read set is a plain append log): a write-set probe
	// runs an inline linear scan behind a one-word first-touch filter while
	// the set is small, and one find-or-insert probe of a
	// generation-stamped index once it outgrows the scan. The lock set,
	// searched only by validation and history publication, mirrors new
	// entries lazily (lkIndexed counts those mirrored so far).
	wsIdx     txIndex
	lkIdx     txIndex
	lkIndexed int

	// touchIdx/touchGen give O(1) partition→touched lookup: touchIdx[pid]
	// is the partition's position in tx.touched when touchGen[pid] matches
	// touchGenVal (bumped every attempt; sized to the topology at begin).
	touchIdx    []int32
	touchGen    []uint64
	touchGenVal uint64

	// memoBlock is the heap block of the last access resolved by resolve,
	// memoPS and memoTI its partition's state and touched index. A block's
	// site never changes once allocated and plans and configurations change
	// only under quiescence, so the memo holds for the whole attempt; begin
	// clears it.
	memoBlock uint64
	memoPS    *partState
	memoTI    int

	// wv is the commit's write version (assignWriteVersions), and
	// histRecs/histBufs are appendHistory's per-partition record buckets
	// (indexed by the partition's position in tx.touched), reused across
	// attempts.
	wv       uint64
	histRecs [][]mvstore.Record
	histBufs []*mvstore.Buffer

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

// Snapshot returns the transaction's current snapshot timestamp. It never
// moves backwards within an attempt.
func (tx *Tx) Snapshot() uint64 { return tx.snapshot }

// ReadOnly reports whether this attempt runs in read-only mode.
func (tx *Tx) ReadOnly() bool { return tx.readOnly }

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

func (tx *Tx) begin(readOnly, snap, unlogged bool) {
	tx.topo = tx.eng.topo.Load()
	tx.readOnly = readOnly
	tx.hasVisible = false
	tx.snapMode = snap && readOnly
	tx.unlogged = unlogged && readOnly
	tx.pinned = false
	tx.snapHits = 0
	tx.durationNs = 0
	tx.walSeq = 0
	tx.walDst = nil
	tx.timed = tx.eng.latency.Load()
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
	tx.wsIdx.reset()
	tx.lkIdx.reset()
	tx.lkIndexed = 0
	if n := len(tx.topo.parts); len(tx.touchIdx) < n {
		tx.touchIdx = make([]int32, n)
		tx.touchGen = make([]uint64, n)
	}
	tx.touchGenVal++
	tx.memoBlock = ^uint64(0)
	// A kill aimed at a previous attempt does not apply; the word is almost
	// always zero already, and finding that out is free.
	if tx.th.killed.Load() != 0 {
		tx.th.killed.Store(0)
	}
	// Publish the reclamation stamp BEFORE sampling the snapshot: the
	// horizon sweep must be able to see this transaction before it bases a
	// single read on the clock, else a reclaimer that misses the slot could
	// recycle an address an already-sampled snapshot can still reach (the
	// ordering contract in internal/epoch). The stamp is a clock load of
	// its own, a lower bound on every snapshot this attempt will ever
	// hold, pinned or extended. All modes publish: snapshot readers
	// reconstruct freed addresses from history, and update/read-only
	// attempts also gate on it so extension never revalidates against a
	// recycled word.
	tx.eng.epochs.Publish(tx.th.slot, tx.eng.clock.Load())
	tx.snapshot = tx.eng.clock.Load()
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
func (tx *Tx) touch(p *Partition) int {
	id := int(p.id)
	if tx.touchGen[id] == tx.touchGenVal {
		return int(tx.touchIdx[id])
	}
	n := len(tx.touched)
	if n < cap(tx.touched) {
		tx.touched = tx.touched[:n+1]
	} else {
		tx.touched = append(tx.touched, touchRec{})
	}
	// Filled in place: the record is a cache line and a half of counters.
	tx.touched[n] = touchRec{p: p}
	tx.touchIdx[id] = int32(n)
	tx.touchGen[id] = tx.touchGenVal
	return n
}

// resolve returns the state and touched index of addr's partition,
// registering the partition in the footprint. The lookup runs once per
// heap block: repeat accesses to the block of the previous one reuse its
// result (see memoBlock).
func (tx *Tx) resolve(addr memory.Addr) (*partState, int) {
	if uint64(addr)>>tx.eng.blockShift != tx.memoBlock {
		tx.resolveBlock(addr)
	}
	return tx.memoPS, tx.memoTI
}

// resolveBlock looks addr's partition up and memoises it for addr's block
// (resolve's slow path, kept out of line so resolve inlines).
func (tx *Tx) resolveBlock(addr memory.Addr) {
	p := tx.eng.partOf(tx.topo, addr)
	tx.memoBlock = uint64(addr) >> tx.eng.blockShift
	tx.memoPS, tx.memoTI = p.loadState(), tx.touch(p)
}

// Small-set thresholds: up to these many entries, set membership runs as an
// inline linear scan behind the index's one-word filter (the entries fit in
// a couple of cache lines and a scan beats a hash probe); above, lookups go
// through the generation-stamped index.
const (
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

// tick marks one transactional operation: a potential scheduling point
// while the engine's yield mask is set.
func (tx *Tx) tick() {
	if m := tx.eng.yieldMask.Load(); m != 0 && tx.th.nextRand()&m == 0 {
		runtime.Gosched()
	}
}

// Load transactionally reads the word at addr.
func (tx *Tx) Load(addr memory.Addr) uint64 {
	tx.checkKilled()
	tx.tick()
	ps, ti := tx.resolve(addr)
	tx.touched[ti].loads++

	// Read-after-write: buffered values win.
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
// it has written addr (read-after-write).
func (tx *Tx) wsBuffered(addr memory.Addr) (uint64, bool) {
	if len(tx.ws) > 0 {
		if i := tx.wsFind(addr); i >= 0 {
			return tx.ws[i].val, true
		}
	}
	return 0, false
}

// loadInvisible implements the timestamp-validated invisible read: sample
// lock word, read value, resample; extend the snapshot when the version is
// newer than it. ti indexes the partition's entry in tx.touched (for its
// counters).
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
				// Self-locked: the buffered value was returned by the
				// caller's write-set probe; reaching here means a different
				// word sharing the orec, whose memory is stable under our
				// own lock.
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
				tx.stall(spins, ti)
				continue
			}
			tx.cmConflict(ps, AbortLockedOnRead, &spins, ti)
			continue
		}
		v := tx.eng.arena.LoadAtomic(addr)
		if o.lock.Load() != l1 {
			spins++
			continue
		}
		if ver := versionOf(l1); ver > tx.snapshot {
			// A commit moved the orec past the snapshot. In snapshot mode,
			// reconstruct the value at the snapshot from the partition's
			// multi-version store; the covering record exists unless the
			// ring has evicted it (then fall back to the validate/extend
			// path — correctness never depends on retention). A miss is
			// counted whether the record was evicted or no store exists at
			// all: SnapMisses is the partition's unserved snapshot demand.
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
// snapshot. The first attempt of a read-only Run keeps no read set (in
// snapshot mode, on a store-backed partition): it pins the snapshot instead
// (see Tx.unlogged). Otherwise the read is appended, as in TL2: a repeat
// read of an orec adds one more entry, and validate checks each (two
// entries for one orec at different versions fail validation).
func (tx *Tx) logRead(ps *partState, o *orec, ver uint64) {
	if tx.pins(ps) {
		tx.pinned = true
		return
	}
	tx.rs = append(tx.rs, readEntry{o: o, ver: ver})
}

// pins reports whether this attempt answers a current read of ps by pinning
// the snapshot instead of logging it (see Tx.unlogged).
func (tx *Tx) pins(ps *partState) bool {
	return tx.unlogged && (!tx.snapMode || ps.hist != nil)
}

// loadVisible implements the visible read: register in the reader bitmap
// of the orec's stripe, re-check the lock, and pin the location until
// commit/abort. A bit already set is this attempt's own registration
// (finish and rollback clear every bit an attempt set), so a read of an
// already registered stripe pays a plain load. The version check against
// the snapshot is kept so that a transaction mixing visible and invisible
// partitions still observes one consistent snapshot (opacity); visible
// entries themselves never need commit validation.
func (tx *Tx) loadVisible(ps *partState, o *orec, addr memory.Addr, ti int) uint64 {
	bit, readers := tx.th.readerBit(), ps.table.readersOf(addr)
	spins := 0
	for {
		l := o.lock.Load()
		if isLocked(l) {
			if lockOwner(l) == tx.th.slot {
				return tx.eng.arena.LoadAtomic(addr)
			}
			tx.cmConflict(ps, AbortLockedOnRead, &spins, ti)
			continue
		}
		if readers.Load()&bit == 0 {
			readers.Or(bit)
			if l = o.lock.Load(); isLocked(l) {
				// A writer slipped in between the check and the
				// registration; withdraw and arbitrate.
				readers.And(^bit)
				tx.cmConflict(ps, AbortLockedOnRead, &spins, ti)
				continue
			}
			tx.vreads = append(tx.vreads, readers)
		}
		if ver := versionOf(l); ver > tx.snapshot {
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
	ps, ti := tx.resolve(addr)
	tr := &tx.touched[ti]
	tr.stores++
	tr.wrote = true
	if ps.cfg.Read == VisibleReads {
		tx.hasVisible = true
	}
	o := ps.table.of(addr)
	tx.acquire(ps, o, addr, ti)
	tx.wsPut(addr, v, o, ps)
}

// wsPut buffers the write of v to addr, whose orec o is already locked, in
// the write set.
func (tx *Tx) wsPut(addr memory.Addr, v uint64, o *orec, ps *partState) {
	en, fresh := tx.wsEntry(addr)
	if fresh {
		en.o, en.ps = o, ps
	}
	en.val = v
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
// the per-access overhead (footprint touch, statistics) once per object
// instead of once per word. An attempt that has written nothing yet
// (every read-only one) reads up to sweepWords words in one sweep: sample
// the object's orec span, load every word, re-sample the span; each word
// is then certified by two identical unlocked samples of its own orec at
// or below the snapshot, and the read set gets one entry per orec of the
// span (or, on the unlogged first attempt of a read-only Run, none). A locked,
// stale or changed orec, or a span that wraps the table end, sends that
// window to the per-orec path, which also serves attempts with buffered
// writes: words sharing an ownership record are read under a single
// lock-sample/re-sample pair with one read-set entry, and — in snapshot
// mode — a whole object is reconstructed from the partition's
// multi-version store with one index probe when it was written by a
// single commit (mvstore.ReadRangeAt). This is the primitive behind the
// typed object layer (stm.Ref).
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

// sweepWords is the window of one LoadWords sweep: its lock samples live
// in a stack array of this many entries.
const sweepWords = 16

// loadWordsChunk reads a word range confined to one heap block (one
// partition), a sweep per window when nothing is buffered, else per orec.
func (tx *Tx) loadWordsChunk(addr memory.Addr, dst []uint64) {
	ps, ti := tx.resolve(addr)
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
		if !tx.sweep(ps, addr, dst[:c]) {
			tx.loadGroups(ps, addr, dst[:c], ti)
		}
		addr += memory.Addr(c)
		dst = dst[c:]
	}
}

// sweep reads dst (at most sweepWords words) in three passes over the
// range's orec span — the consecutive table entries its words map to —
// and reports whether every word was certified; on false the caller
// re-reads dst on the per-orec path, which owns every conflict case and
// serves a span that wraps the table end.
func (tx *Tx) sweep(ps *partState, addr memory.Addr, dst []uint64) bool {
	var lbuf [sweepWords]uint64
	t, snap := ps.table, tx.snapshot
	i0 := t.indexOf(addr)
	n := (uint64(addr)+uint64(len(dst))-1)>>t.granShift - uint64(addr)>>t.granShift + 1
	if i0+n > uint64(len(t.orecs)) {
		return false
	}
	span, ls := t.orecs[i0:i0+n], lbuf[:n]
	for i := range span {
		l := span[i].lock.Load()
		if isLocked(l) || versionOf(l) > snap {
			return false
		}
		ls[i] = l
	}
	for i := range dst {
		dst[i] = tx.eng.arena.LoadAtomic(addr + memory.Addr(i))
	}
	for i := range span {
		if span[i].lock.Load() != ls[i] {
			return false
		}
	}
	if tx.pins(ps) {
		tx.pinned = true
		return true
	}
	for i := range span {
		tx.logRead(ps, &span[i], versionOf(ls[i]))
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
				// Self-locked: memory is stable under our own lock
				// (buffered values were peeled off by the caller).
				for j := i; j < end; j++ {
					dst[j] = tx.eng.arena.LoadAtomic(addr + memory.Addr(j))
				}
				return end
			}
			if !tx.snapMode {
				tx.cmConflict(ps, AbortLockedOnRead, &spins, ti)
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
			tx.stall(spins, ti)
			continue
		}
		for j := i; j < end; j++ {
			dst[j] = tx.eng.arena.LoadAtomic(addr + memory.Addr(j))
		}
		if o.lock.Load() != l1 {
			spins++
			continue
		}
		if ver := versionOf(l1); ver > tx.snapshot {
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
// dst[i:end) whose orec is stale — at the snapshot from the partition's
// multi-version store, and returns the next unserved position (i on a
// miss). The narrower retry serves a commit that wrote only part of an
// object: the unwritten words have no record, so the all-or-nothing range
// read fails, yet their own orecs are fresh and the caller's loop reads
// them from memory.
func (tx *Tx) snapReadFrom(ps *partState, addr memory.Addr, dst []uint64, i, end, ti int) int {
	base, snap := uint64(addr)+uint64(i), tx.snapshot
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
	ps, ti := tx.resolve(addr)
	tr := &tx.touched[ti]
	tr.stores += uint64(len(src))
	tr.wrote = true
	if ps.cfg.Read == VisibleReads {
		tx.hasVisible = true
	}
	var held *orec // last orec acquired by this chunk: skip re-acquisition
	for i := range src {
		a := addr + memory.Addr(i)
		o := ps.table.of(a)
		if o != held {
			tx.acquire(ps, o, a, ti)
			held = o
		}
		tx.wsPut(a, src[i], o, ps)
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

// acquire takes the write lock of addr's orec o at encounter time,
// draining visible readers per the partition's reader policy. ti indexes
// the partition in tx.touched (for its snapshot).
func (tx *Tx) acquire(ps *partState, o *orec, addr memory.Addr, ti int) {
	spins := 0
	for {
		l := o.lock.Load()
		if isLocked(l) {
			if lockOwner(l) == tx.th.slot {
				return
			}
			tx.cmConflict(ps, AbortLockedOnWrite, &spins, ti)
			continue
		}
		if versionOf(l) > tx.snapshot && len(tx.rs) > 0 {
			// The location moved past our snapshot; extend now so commit
			// validation is not doomed.
			if !tx.extend() {
				tx.abort(AbortValidation)
			}
		}
		if o.lock.CompareAndSwap(l, lockWordFor(tx.th.slot)) {
			tx.locks = append(tx.locks, lockRec{o: o, prev: l})
			if ps.cfg.Read == VisibleReads {
				tx.drainReaders(ps, ps.table.readersOf(addr), ti)
			}
			return
		}
	}
}

// drainReaders resolves write-vs-visible-reader conflicts after the lock
// is held: either kill the readers registered in the orec's bitmap and
// wait for their bits to clear, or yield (abort self) per the partition's
// reader policy.
func (tx *Tx) drainReaders(ps *partState, readers *atomic.Uint64, ti int) {
	bit := tx.th.readerBit()
	spins := 0
	for {
		r := readers.Load() &^ bit
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
			tx.stall(spins, ti)
			tx.checkKilled() // we may be a visible reader elsewhere, under attack
			continue
		}
		// WriterYieldsToReaders: bounded patience, then step aside.
		spins++
		if spins > spinBudget {
			tx.abort(AbortReaderWall)
		}
		tx.stall(spins, ti)
		tx.checkKilled()
	}
}

// cmConflict arbitrates a lock conflict per the partition's CM policy: it
// either returns (the caller retries the protocol loop) or aborts by panic.
// CMSuicide aborts at once; CMSpin stalls until spinBudget is spent.
func (tx *Tx) cmConflict(ps *partState, cause AbortCause, spins *int, ti int) {
	tx.checkKilled()
	*spins++
	if ps.cfg.CM == CMSuicide || *spins > spinBudget {
		tx.abort(cause)
	}
	tx.stall(*spins, ti)
}

// snapRead attempts to serve a snapshot-mode read of addr at the pinned
// snapshot from the multi-version store. A hit pins the
// snapshot for the rest of the attempt (see extend).
func (tx *Tx) snapRead(ps *partState, addr memory.Addr, ti int) (uint64, bool) {
	v, ok := ps.hist.ReadAt(uint64(addr), tx.snapshot)
	if ok {
		tx.touched[ti].snapHits++
		tx.pinned = true
	}
	return v, ok
}

// extend attempts a snapshot extension: validate the invisible read set
// and, on success, move the snapshot forward. The new snapshot is
// sampled before validating (TL2 order): a commit that lands between the
// sample and the validation carries a version above the new snapshot, so
// later reads of it re-trigger extension — validation passing means every
// read was current at some instant at or after the sample.
//
// A pinned attempt — one that has reconstructed a read from the
// multi-version store, or served one without logging it (Tx.unlogged) —
// refuses extension: reconstructed values are correct only at the pinned
// instant and unlogged reads cannot be revalidated, so moving the snapshot
// would mix two instants. The caller then aborts and the retry, which logs
// every read, samples a fresher snapshot.
func (tx *Tx) extend() bool {
	if tx.pinned {
		return false
	}
	// No "clock unchanged" short-circuit here: every extension trigger has
	// already observed a version above the snapshot, and versions never
	// exceed the clock, so the fresh sample always postdates the snapshot.
	// The reachable form of that optimization lives at commit time
	// (assignWriteVersions), where validation is skipped when no foreign
	// commit has landed since the snapshot.
	now := tx.eng.clock.Load()
	if !tx.validate() {
		return false
	}
	tx.snapshot = now
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

// commit finishes the transaction: write-version assignment by the commit
// clock, read-set validation, write-back, lock release, visible-reader
// deregistration, bookkeeping.
func (tx *Tx) commit() {
	tx.checkKilled()
	if len(tx.ws) == 0 && len(tx.locks) == 0 {
		// Read-only commit. Invisible entries were continuously valid at
		// the snapshot; if any visible-mode partition was touched the
		// serialization point is commit time, so validate the invisible
		// entries against it — which a pinned attempt cannot do for the
		// reads it did not log: it aborts, and the retry logs them.
		if tx.hasVisible && (tx.pinned || len(tx.rs) > 0 && !tx.validate()) {
			tx.abort(AbortValidation)
		}
		tx.finish(AbortNone)
		return
	}
	if tx.assignWriteVersions() || tx.hasVisible {
		if !tx.validate() {
			tx.abort(AbortValidation)
		}
	}
	tx.appendHistory()
	tx.teeWAL()
	for i := range tx.ws {
		tx.eng.arena.StoreAtomic(tx.ws[i].addr, tx.ws[i].val)
	}
	wv := versionWord(tx.wv)
	for i := range tx.locks {
		tx.locks[i].o.lock.Store(wv)
	}
	tx.finish(AbortNone)
}

// assignWriteVersions ticks the commit clock for this commit's write
// version and reports whether read-set validation is required before
// write-back: the classic TL2 rule skips it only when the clock moved
// exactly one past our snapshot (no foreign commit in between). It runs
// while every write lock is held and before any is released, so the new
// version is never visible in an orec before the clock covers it.
func (tx *Tx) assignWriteVersions() bool {
	tx.wv = tx.eng.clock.Add(1)
	return tx.wv > tx.snapshot+1
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
		old := tx.eng.arena.LoadAtomic(en.addr)
		// A written partition is always in the footprint (Store touches
		// it), so touchIdx is current for this attempt.
		ti := int(tx.touchIdx[en.ps.part.id])
		tx.histBufs[ti] = en.ps.hist
		tx.histRecs[ti] = append(tx.histRecs[ti], mvstore.Record{
			Addr: uint64(en.addr), Val: old, PrevVer: versionOf(prev), NewVer: tx.wv,
		})
	}
	for ti := range tx.histRecs {
		if tx.histBufs[ti] != nil {
			tx.histBufs[ti].AppendBatch(tx.histRecs[ti])
		}
	}
}

// rollback undoes an attempt: release locks to their previous words,
// clear reader bits, recycle allocations made by the attempt, and record
// the abort cause.
func (tx *Tx) rollback(cause AbortCause) {
	for i := len(tx.locks) - 1; i >= 0; i-- {
		lr := &tx.locks[i]
		lr.o.lock.Store(lr.prev)
	}
	bit := tx.th.readerBit()
	for _, r := range tx.vreads {
		r.And(^bit)
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
		flushWait(st, &tr.wait)
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
		for _, r := range tx.vreads {
			r.And(^bit)
		}
		if len(tx.frees) > 0 {
			// Commit-time frees enter limbo stamped with a clock reading
			// taken after this commit's write version was assigned (locks
			// may or may not be released yet — either way the unlink is at
			// or below this reading). They recycle only once the horizon
			// passes the stamp; contrast the abort path in rollback, which
			// recycles never-published allocations immediately.
			stamp := tx.eng.clock.Load()
			for _, f := range tx.frees {
				tx.th.alloc.Retire(f.addr, f.n, stamp)
			}
		}
		if tx.th.alloc.NeedsReclaim() {
			// Amortized reclamation: one horizon sweep per ReclaimBatch
			// retires (the allocator re-arms the trigger), so a stalled
			// horizon costs a bounded fraction of commit work.
			tx.th.alloc.Reclaim(tx.eng.epochs.Horizon())
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
