// Package mvstore implements the multi-version snapshot store: a bounded,
// per-partition ring buffer of recently overwritten values, indexed by
// address, that lets read-only transactions in snapshot mode (Run with the
// Snapshot option) read a consistent past state instead of extending their
// snapshot or aborting when a writer commits under them — the LSA-style
// payoff of keeping a few recent committed versions around.
//
// # Records
//
// Every committing update transaction appends one record per written
// address, while all write locks are held and before any is released:
//
//	(addr, prevValue, prevVersion, newVersion)
//
// prevValue is the committed value the commit overwrote, prevVersion is
// the covering ownership record's version before the commit, and
// newVersion is the commit timestamp the engine's commit clock assigned.
// The record therefore certifies: "addr held prevValue at every snapshot
// S with prevVersion <= S < newVersion". prevVersion is an upper bound on
// the last commit that actually wrote addr (the orec may have ticked for
// a neighbouring address), so the interval is conservative — a record
// never claims more history than is true.
//
// # Index and version chains
//
// Lookup is driven by a lock-free open-addressed table mapping each
// address to the ring sequence of its newest record. Successive records
// for one address are chained: every record stores the ring sequence of
// the previous record for the same address, so the records of an address
// form a newest-first singly linked list threaded through the ring.
// ReadAt(addr, S) is one table probe followed by a walk of that chain:
//
//   - no table entry                      → miss, O(1)
//   - S at or above the newest newVersion → miss, O(1)
//   - a chain record's interval covers S  → hit, after as many steps as
//     commits landed on addr since S (the chain is short by construction:
//     its length is bounded by the live records for one address)
//   - a chain link's slot was overwritten → miss (the record was evicted;
//     counted as a retention miss)
//
// Critically, a miss never scans the ring: before the index, a stale
// scan's every load paid O(capacity) seqlock probes exactly when the
// store could not help it. Intervals for one address never overlap (each
// record's newVersion is at most the next record's prevVersion), so the
// chain walk needs no ordering or minimality argument, and a record
// evicted by the bounded ring simply turns the lookup into a miss.
// Correctness never depends on retention: the engine falls back to its
// validate/extend read path on a miss.
//
// Records of one commit are published back to back in the ring (the
// engine batches a commit's records per partition through AppendBatch), so
// the batch doubles as a grouped per-commit record: a conceptual header —
// the first record — followed by N contiguous values. ReadRangeAt exploits
// that layout to reconstruct a whole multi-word object with ONE index
// probe: it walks the first address's chain to the covering record, then
// serves the remaining words straight from the neighbouring ring slots,
// each verified by its own published sequence, stored address and version
// interval. Ranges whose covering records are not contiguous — commits
// that overwrote single member words since — degrade per word to the
// ordinary probe-and-walk (see ReadRangeAt).
//
// The table is sized with the ring and never rehashed (the fresh-table-
// per-partState discipline below plays the role core/txindex.go's
// generation stamps play for per-attempt indexes: a rebuild is a new
// buffer, so no in-place invalidation is ever needed). Entries are never
// deleted; when the addresses ever appended outgrow the table's probe
// window, an insert steals the window's stalest entry (smallest recorded
// ring sequence — its record is the first the ring evicts). A stolen
// entry only ever turns lookups for the victim address into misses, which
// the engine handles anyway; readers verify the address stored in the
// ring slot itself, so a stale or stolen index entry can never produce a
// wrong value.
//
// # Concurrency
//
// Appends are lock-free: a writer takes the next ring sequence with one
// atomic fetch-add (or one per batch, AppendBatch), then claims the slot
// seqlock-style by CAS from an even (published or empty) sequence to its
// odd (writing) one, stores the fields it now exclusively owns — among
// them the chain link read from the index — and publishes by storing the
// even sequence; only then does it advance the index entry, so a reader
// that finds the entry always finds the published record. A writer that
// loses the claim CAS — the ring wrapped a full revolution while another
// append was in flight on the same slot — drops its record instead of
// interleaving fields into a torn publication; a dropped record only
// ever turns a lookup into a miss, which the engine handles anyway.
// Readers accept a slot only when its sequence equals the exact published
// value for the ring sequence they followed (2s+2) before and after the
// field reads; sequences are strictly increasing per slot, so the check
// is ABA-free. All fields are atomics, so the Go memory model orders a
// record's publication before the lock release that makes its newVersion
// visible: a reader that observes the new orec version is guaranteed to
// observe the record, unless the ring has already evicted it.
//
// Concurrent appends for the same address are serialized by the caller
// (the engine appends while holding the address's write lock); the store
// itself stays memory-safe without that guarantee, but racing same-
// address appends may fork or shorten a chain, turning lookups into
// misses.
//
// Buffers are bounded and per partition; capacity is a per-partition
// configuration knob (core.PartConfig.HistCap). A buffer belongs to one partition state (one orec table): the
// engine creates a fresh buffer whenever it rebuilds the table, because
// records are only meaningful against the version timeline of the table
// whose orecs minted their prevVersions.
package mvstore

import "sync/atomic"

// slot is one ring entry. seq is the seqlock word: 0 = never written,
// odd = being written, even nonzero = published record with ring sequence
// (seq-2)/2. prev is the chain link: ring sequence + 1 of the previous
// record for the same address, 0 = none.
type slot struct {
	seq     atomic.Uint64
	addr    atomic.Uint64
	val     atomic.Uint64
	prevVer atomic.Uint64
	newVer  atomic.Uint64
	prev    atomic.Uint64
	_       [2]uint64 // pad to 64 bytes against false sharing
}

// idxSlot is one entry of the address index. key is addr+1 (0 = empty);
// head is the ring sequence + 1 of the address's newest record (0 = none
// yet). Keys are claimed by CAS and never deleted, only stolen (see the
// package comment); heads only move forward along the ring.
type idxSlot struct {
	key  atomic.Uint64
	head atomic.Uint64
}

// Buffer is one partition's bounded version store. The zero value is not
// usable; construct with New.
type Buffer struct {
	slots []slot
	mask  uint64
	idx   []idxSlot
	imask uint64
	_     [4]uint64     // keep head off the slice headers' line
	head  atomic.Uint64 // ring sequence of the next append
	_     [7]uint64     // and off the stats blocks below

	// Lookup statistics (see Stats), striped by address hash so that
	// concurrent readers scanning different addresses do not serialize on
	// one shared cache line (a scan's every reconstructed load updates
	// these): probes/hits partition every ReadAt, chainSteps counts walked
	// chain links beyond the newest record, and truncMisses counts misses
	// caused by an evicted chain link or a stolen/stale index entry — the
	// capacity-curable misses.
	stats [statStripes]statBlock

	// steals counts index entries reclaimed from another address at
	// append time: nonzero means the addresses ever appended outgrew the
	// index's probe coverage, so lookups for the victims miss — also
	// cured by capacity (the index is sized with the ring). Appends are
	// already serialized per address, so one counter does not contend.
	steals atomic.Uint64
}

// statStripes is the number of lookup-counter stripes; addresses spread
// across them by hash, bounding reader contention on the counters.
const statStripes = 8

// statBlock is one stripe of lookup counters, padded to a cache line.
type statBlock struct {
	probes      atomic.Uint64
	hits        atomic.Uint64
	chainSteps  atomic.Uint64
	truncMisses atomic.Uint64
	rangeReads  atomic.Uint64
	rangeFast   atomic.Uint64
	_           [2]uint64
}

// minCap is the smallest usable ring; anything below churns too fast to
// ever satisfy a reader.
const minCap = 8

// MaxCap bounds the ring capacity. New clamps here, and
// core.PartConfig.Normalize applies the same ceiling to HistCap, so the
// capacity round-up loop can never overflow (a huge request once spun
// n <<= 1 past 2^63 into an infinite loop).
const MaxCap = 1 << 20

// idxProbeWindow is the linear-probe bound of the address index: an
// insert or lookup examines at most this many consecutive table entries.
const idxProbeWindow = 16

// hashMul is the 64-bit Fibonacci multiplier (same constant as
// core/txindex.go); the high bits mix well for word-aligned addresses.
const hashMul = 0x9E3779B97F4A7C15

// New creates a buffer retaining the last capacity records (rounded up to
// a power of two, minimum 8, clamped to MaxCap). The address index is
// sized at twice the ring, so steals only start once the addresses ever
// appended approach double the retained records.
func New(capacity int) *Buffer {
	if capacity < 0 {
		capacity = 0
	}
	if capacity > MaxCap {
		capacity = MaxCap
	}
	n := uint64(minCap)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &Buffer{
		slots: make([]slot, n),
		mask:  n - 1,
		idx:   make([]idxSlot, 2*n),
		imask: 2*n - 1,
	}
}

// Cap returns the ring capacity in records.
func (b *Buffer) Cap() int { return len(b.slots) }

// Head returns the total number of records ever appended. Readers use it
// as a cheap change signal: a failed lookup can only start succeeding
// after Head moves.
func (b *Buffer) Head() uint64 { return b.head.Load() }

// Record is one overwrite record for AppendBatch.
type Record struct {
	Addr    uint64
	Val     uint64
	PrevVer uint64
	NewVer  uint64
}

// Append publishes one overwrite record. Callers (committing writers)
// must append while still holding the write lock whose release will
// publish NewVer, so no reader can need the record before it exists.
func (b *Buffer) Append(addr, val, prevVer, newVer uint64) {
	s := b.head.Add(1) - 1
	b.publishAt(s, addr, val, prevVer, newVer)
}

// AppendBatch publishes a batch of records with a single fetch-add on the
// ring head — committing writers group their records per partition so a
// wide commit issues one shared read-modify-write per written partition
// instead of one per written address. Records in one batch must carry
// distinct addresses (the engine's write set is deduplicated per
// address); duplicate addresses are not unsafe, merely chain-forking as
// described in the package comment.
func (b *Buffer) AppendBatch(recs []Record) {
	n := uint64(len(recs))
	if n == 0 {
		return
	}
	s0 := b.head.Add(n) - n
	for i := range recs {
		r := &recs[i]
		b.publishAt(s0+uint64(i), r.Addr, r.Val, r.PrevVer, r.NewVer)
	}
}

// publishAt claims ring sequence s, publishes the record, and advances
// the address index to it.
func (b *Buffer) publishAt(s, addr, val, prevVer, newVer uint64) {
	is, prev := b.indexClaim(addr)
	sl := &b.slots[s&b.mask]
	// Claim the slot by CAS to the odd (writing) sequence. Losing the
	// claim means the ring wrapped all the way around while another
	// append was mid-flight on this very slot; writing our fields anyway
	// could interleave with the owner's and publish a torn record, so the
	// record is dropped instead — by construction a dropped record only
	// ever turns a future lookup into a miss, and misses fall back to the
	// engine's validate/extend path. Between a successful claim and the
	// publish below the slot is exclusively ours: every other claimant's
	// CAS fails against the odd value.
	cur := sl.seq.Load()
	if cur&1 != 0 || !sl.seq.CompareAndSwap(cur, 2*s+1) {
		return
	}
	sl.addr.Store(addr)
	sl.val.Store(val)
	sl.prevVer.Store(prevVer)
	sl.newVer.Store(newVer)
	sl.prev.Store(prev)
	sl.seq.Store(2*s + 2)
	if is == nil {
		return // index full in our window; record retained but unreachable
	}
	// Advance the index head, forward only: ring sequences grow
	// monotonically, so the largest value is the newest record. (Same-
	// address appends are serialized by the engine; this CAS loop only
	// matters for standalone misuse and costs one uncontended CAS.)
	for {
		h := is.head.Load()
		if h >= s+1 || is.head.CompareAndSwap(h, s+1) {
			return
		}
	}
}

// indexClaim locates (or creates) the index entry for addr and returns it
// together with the chain link for a new record: the entry's current head
// (ring sequence + 1 of the previous newest record), or 0 when the entry
// is fresh or stolen. Returns nil when the probe window is saturated by
// concurrent claims — the record then simply goes unindexed.
func (b *Buffer) indexClaim(addr uint64) (*idxSlot, uint64) {
	key := addr + 1
	if key == 0 {
		return nil, 0 // addr ^uint64(0) is unindexable; record drops to a miss
	}
	h := (addr * hashMul) >> 32
	var victim *idxSlot
	victimHead := ^uint64(0)
	for i := uint64(0); i < idxProbeWindow; i++ {
		is := &b.idx[(h+i)&b.imask]
		k := is.key.Load()
		if k == key {
			return is, is.head.Load()
		}
		if k == 0 {
			if is.key.CompareAndSwap(0, key) {
				return is, 0
			}
			if is.key.Load() == key {
				// Lost the race to a concurrent appender of the same
				// address (standalone misuse; the engine serializes).
				return is, is.head.Load()
			}
			// A different key landed; treat the slot as occupied.
		}
		if hd := is.head.Load(); hd < victimHead {
			victim, victimHead = is, hd
		}
	}
	// Window full: steal the stalest entry (smallest head — its record is
	// the one the ring evicts first). Lookups for the victim address turn
	// into misses; the old head may linger on the entry for an instant,
	// which is safe because ReadAt verifies the address stored in the
	// ring slot itself.
	if victim == nil {
		return nil, 0
	}
	if vk := victim.key.Load(); vk != key && victim.key.CompareAndSwap(vk, key) {
		victim.head.Store(0)
		b.steals.Add(1)
		return victim, 0
	}
	if victim.key.Load() == key {
		return victim, victim.head.Load()
	}
	return nil, 0
}

// indexFind returns the index entry for addr, or nil. Inserts claim the
// first empty slot in the probe window and entries are never emptied, so
// the scan may stop at the first empty slot.
func (b *Buffer) indexFind(addr uint64) *idxSlot {
	key := addr + 1
	if key == 0 {
		return nil
	}
	h := (addr * hashMul) >> 32
	for i := uint64(0); i < idxProbeWindow; i++ {
		is := &b.idx[(h+i)&b.imask]
		k := is.key.Load()
		if k == key {
			return is
		}
		if k == 0 {
			return nil
		}
	}
	return nil
}

// ReadAt returns the committed value of addr at snapshot at, if a record
// covering that instant is still retained. One index probe finds the
// address's newest record; the walk follows the per-address chain only as
// far as commits have landed on addr since the snapshot. A miss —
// including the stale-scan case that used to cost a full ring scan — is
// detected without ever touching more than the chain: no index entry, a
// snapshot at or above the newest record, or an evicted chain link each
// answer in O(1).
func (b *Buffer) ReadAt(addr, at uint64) (uint64, bool) {
	v, _, ok := b.lookupAt(b.stripe(addr), addr, at)
	return v, ok
}

// stripe returns the lookup-counter stripe for addr.
func (b *Buffer) stripe(addr uint64) *statBlock {
	return &b.stats[(addr*hashMul)>>(64-3)] // stripe by address hash
}

// lookupAt is the shared probe-and-walk behind ReadAt and ReadRangeAt: it
// returns the covering value together with the ring sequence of the record
// that carried it (so range lookups can try the record's batch neighbours
// without further index probes). Counter accounting matches ReadAt's
// documented semantics: one probe per call, one hit per served value.
func (b *Buffer) lookupAt(st *statBlock, addr, at uint64) (val, ringSeq uint64, ok bool) {
	st.probes.Add(1)
	is := b.indexFind(addr)
	if is == nil {
		return 0, 0, false // no recorded history for addr
	}
	cur := is.head.Load()
	for steps := 0; cur != 0; steps++ {
		s := cur - 1
		sl := &b.slots[s&b.mask]
		q := 2*s + 2
		if sl.seq.Load() != q {
			// The slot no longer holds ring sequence s: the record was
			// evicted (or is being overwritten). The chain below it is
			// at least as old, so the walk is over — a retention miss.
			st.truncMisses.Add(1)
			return 0, 0, false
		}
		a := sl.addr.Load()
		v := sl.val.Load()
		pv := sl.prevVer.Load()
		nv := sl.newVer.Load()
		prev := sl.prev.Load()
		if sl.seq.Load() != q {
			st.truncMisses.Add(1)
			return 0, 0, false
		}
		if a != addr {
			// Stale or stolen index entry: the address HAD history, the
			// index just cannot reach it any more — capacity-curable
			// (a bigger ring brings a bigger index), so it counts with
			// the retention misses.
			st.truncMisses.Add(1)
			return 0, 0, false
		}
		if steps > 0 {
			st.chainSteps.Add(1)
		}
		if pv <= at && at < nv {
			st.hits.Add(1)
			return v, s, true
		}
		if at >= nv {
			// The snapshot postdates the newest retained overwrite of
			// addr: no record covers it (memory, or the validate path,
			// is authoritative). Older chain records are older still.
			return 0, 0, false
		}
		if prev >= cur {
			// A chain must strictly descend in ring sequence; anything
			// else is a fork from unserialized same-address appends.
			st.truncMisses.Add(1)
			return 0, 0, false
		}
		cur = prev
	}
	return 0, 0, false // at predates the oldest record for addr
}

// ReadRangeAt reconstructs the committed values of the contiguous address
// range [addr, addr+len(dst)) at snapshot at, writing dst[i] for addr+i.
// It returns true only when every word of the range is served; on false,
// dst holds partial garbage and the caller must fall back to per-word
// reads (or the validate/extend path).
//
// The grouped-record fast path is what makes object reconstruction cost
// one index probe instead of one per word: a commit that writes a whole
// object publishes its records back to back in the ring (the engine's
// AppendBatch keeps a write set's records contiguous), so once the walk
// for addr lands on the covering record, the neighbouring ring slots are
// checked directly — each one verified by its published sequence, its
// stored address and its version interval, exactly the checks a chain
// walk performs — and index probing is skipped entirely. Interleaved or
// partially overwritten ranges degrade per word to the ordinary
// probe-and-walk, never to a wrong value.
func (b *Buffer) ReadRangeAt(addr, at uint64, dst []uint64) bool {
	if len(dst) == 0 {
		return true
	}
	st := b.stripe(addr)
	st.rangeReads.Add(1)
	v0, s0, ok := b.lookupAt(st, addr, at)
	if !ok {
		return false
	}
	dst[0] = v0
	grouped := true
	for i := 1; i < len(dst); i++ {
		a := addr + uint64(i)
		if grouped {
			si := s0 + uint64(i)
			sl := &b.slots[si&b.mask]
			q := 2*si + 2
			if sl.seq.Load() == q {
				sa := sl.addr.Load()
				sv := sl.val.Load()
				pv := sl.prevVer.Load()
				nv := sl.newVer.Load()
				if sl.seq.Load() == q && sa == a && pv <= at && at < nv {
					dst[i] = sv
					continue
				}
			}
			grouped = false
		}
		v, _, ok := b.lookupAt(b.stripe(a), a, at)
		if !ok {
			return false
		}
		dst[i] = v
	}
	if grouped {
		st.rangeFast.Add(1)
	}
	return true
}

// Stats is a momentary reading of a buffer, for experiments and the
// engine's observability surface.
type Stats struct {
	// Cap is the ring capacity in records.
	Cap int
	// Appends is the total number of records ever appended.
	Appends uint64
	// Live is the number of records currently retained (<= Cap).
	Live int
	// OldestVersion and NewestVersion bound the newVersion stamps of the
	// retained records: the buffer can serve snapshots back to roughly
	// OldestVersion's predecessor. Both are 0 while the buffer is empty.
	OldestVersion uint64
	NewestVersion uint64
	// Probes and Hits count ReadAt calls and the subset that returned a
	// value; Probes-Hits is the miss count.
	Probes uint64
	Hits   uint64
	// TruncMisses is the subset of misses caused by an evicted (or torn)
	// chain link, or by a stale/stolen index entry: the record existed
	// but is no longer reachable. This is the capacity-shortfall signal
	// — the miss kinds that growing the ring (and with it the index) can
	// cure.
	TruncMisses uint64
	// Steals counts index entries reclaimed for a different address at
	// append time: the addresses ever appended outgrew the index's probe
	// coverage. Persistent steals alongside misses are likewise cured by
	// capacity.
	Steals uint64
	// ChainSteps counts chain links walked beyond each address's newest
	// record; ChainSteps/Hits approximates how many commits landed on a
	// looked-up address between the reader's snapshot and the lookup
	// (the per-hit walk depth).
	ChainSteps uint64
	// RangeReads counts ReadRangeAt calls; RangeFastHits is the subset
	// fully served by the grouped-record fast path — one index probe for
	// the whole range instead of one per word. RangeReads-RangeFastHits
	// range lookups degraded (at least partially) to per-word probes,
	// which show up in Probes as usual.
	RangeReads    uint64
	RangeFastHits uint64
}

// Stats scans the ring and reports capacity, append count, live records,
// the retained version span, and the lookup counters. Concurrent appends
// make the reading approximate; every field is exact on a quiescent
// buffer.
func (b *Buffer) Stats() Stats {
	st := Stats{
		Cap:     len(b.slots),
		Appends: b.head.Load(),
		Steals:  b.steals.Load(),
	}
	for i := range b.stats {
		sb := &b.stats[i]
		st.Probes += sb.probes.Load()
		st.Hits += sb.hits.Load()
		st.TruncMisses += sb.truncMisses.Load()
		st.ChainSteps += sb.chainSteps.Load()
		st.RangeReads += sb.rangeReads.Load()
		st.RangeFastHits += sb.rangeFast.Load()
	}
	for i := range b.slots {
		sl := &b.slots[i]
		q1 := sl.seq.Load()
		if q1 == 0 || q1&1 != 0 {
			continue
		}
		nv := sl.newVer.Load()
		if sl.seq.Load() != q1 {
			continue
		}
		st.Live++
		if st.OldestVersion == 0 || nv < st.OldestVersion {
			st.OldestVersion = nv
		}
		if nv > st.NewestVersion {
			st.NewestVersion = nv
		}
	}
	return st
}
