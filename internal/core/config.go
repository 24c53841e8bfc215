// Package core implements the software transactional memory engine: a
// word-based STM in the TinySTM family (global version clock, versioned
// ownership records, lazy snapshot validation with extension) extended with
// per-partition concurrency control as described in Riegel, Fetzer and
// Felber, "Automatic Data Partitioning in Software Transactional
// Memories" (SPAA 2008).
//
// Every partition owns its own ownership-record table and its own
// configuration: read visibility (invisible, timestamp-validated reads vs.
// visible reads through per-orec reader bitmaps), lock acquisition time
// (encounter-time vs. commit-time), write strategy (write-back buffering
// vs. write-through with an undo log), conflict-detection granularity
// (lock-array size and words-per-lock), and contention-management policy.
//
// Commit time is one engine-wide counter (Engine.Clock): every partition
// shares one timeline, so a transaction spanning partitions is ordered
// exactly like one that stays inside a single partition.
//
// Transactions run through Engine.RunPooled (which borrows a Thread and
// calls Thread.Run), the single options-driven entrypoint: TxOpt options
// select read-only, snapshot, bounded-retry (MaxAttempts) and
// abort-observing (OnAbort) behaviour. Word access is single
// (Tx.Load/Store) or multi-word (Tx.LoadWords/StoreWords/LoadRange); the
// multi-word forms pay per-access overhead once per object and handle
// words sharing an orec with one protocol round trip — the primitives
// behind the public typed object layer (stm.Ref).
//
// The read set is an append log, as in TL2: every logged read adds one
// entry, so validation and extension cost scale with the reads executed.
// The write set holds one entry per unique address and the lock set one
// per orec, so commit cost scales with the unique locations written. Their
// lookups run as inline linear scans behind a one-word first-touch filter
// while the sets are small, and as one find-or-insert probe of a
// generation-stamped open-addressed index (txIndex) beyond.
// Commit-time validation is skipped when no foreign commit has landed
// since the snapshot (the TL2 rule). See tx.go and txindex.go.
//
// The access path of a transaction that conflicts with nobody executes no
// locked instruction, reads no clock and writes nothing outside its own
// descriptor: per-access statistics accumulate in plain words per touched
// partition and reach the shared counter blocks once per attempt
// (PartThreadStats), and the state other threads' contention managers read
// about a lock owner is published when a lock is taken (Tx.publishOwner).
//
// Partitions may additionally retain a bounded multi-version history of
// overwritten values (PartConfig.HistCap, internal/mvstore), indexed by
// address so both hits and misses cost O(1) in the ring capacity.
// Read-only transactions run in snapshot mode (the Snapshot option) then
// pin their snapshot and reconstruct any location a writer has
// since committed over from that history instead of extending or
// aborting — abort-free read-only transactions under write traffic,
// degrading to the ordinary validate/extend path when a needed record
// has been evicted. Commits publish their history records in one batch
// per written partition.
package core

import (
	"fmt"

	"repro/internal/mvstore"
)

// ReadMode selects how a partition's reads are performed.
type ReadMode uint8

const (
	// InvisibleReads uses timestamp-validated invisible reads: a reader
	// leaves no trace at the orec and validates its read set against the
	// global clock (with snapshot extension). Cheap for read-dominated
	// partitions; wasted work under heavy write contention, because
	// conflicts surface only at validation time.
	InvisibleReads ReadMode = iota
	// VisibleReads registers the reader in the orec's reader bitmap, so
	// writers detect read-write conflicts eagerly. More expensive per
	// read (a shared-memory RMW) but avoids doomed executions in
	// update-heavy, contended partitions.
	VisibleReads
)

func (m ReadMode) String() string {
	switch m {
	case InvisibleReads:
		return "invisible"
	case VisibleReads:
		return "visible"
	default:
		return fmt.Sprintf("ReadMode(%d)", uint8(m))
	}
}

// AcquireMode selects when write locks are taken.
type AcquireMode uint8

const (
	// EncounterTime acquires the orec at first write (eager; conflicts
	// detected early, as in TinySTM's default).
	EncounterTime AcquireMode = iota
	// CommitTime buffers writes and acquires all orecs at commit (lazy;
	// short lock hold times, doomed transactions run longer).
	CommitTime
)

func (m AcquireMode) String() string {
	switch m {
	case EncounterTime:
		return "encounter"
	case CommitTime:
		return "commit"
	default:
		return fmt.Sprintf("AcquireMode(%d)", uint8(m))
	}
}

// WriteMode selects how writes reach memory (meaningful only with
// EncounterTime; CommitTime implies write-back buffering).
type WriteMode uint8

const (
	// WriteBack buffers new values in the write set and applies them at
	// commit.
	WriteBack WriteMode = iota
	// WriteThrough writes in place under the orec lock and keeps an undo
	// log for abort. Cheaper commits, dearer aborts.
	WriteThrough
)

func (m WriteMode) String() string {
	switch m {
	case WriteBack:
		return "write-back"
	case WriteThrough:
		return "write-through"
	default:
		return fmt.Sprintf("WriteMode(%d)", uint8(m))
	}
}

// CMPolicy is the contention-management policy applied when a transaction
// finds an orec locked by another transaction.
type CMPolicy uint8

const (
	// CMSuicide aborts the requesting transaction immediately.
	CMSuicide CMPolicy = iota
	// CMSpin spins for spinBudget iterations, then aborts self.
	CMSpin
	// CMKarma compares accumulated work (reads+writes); the transaction
	// with less work yields: if the requester has strictly more work it
	// kills the owner, otherwise it aborts itself.
	CMKarma
	// CMAggressive kills the lock owner and takes the lock.
	CMAggressive
	// CMBackoff waits with randomized exponential backoff between probes
	// of the lock word, aborting itself when the budget is exhausted.
	// Compared to CMSpin's tight polling it trades latency for much less
	// cache-line traffic on hot orecs.
	CMBackoff
	// CMTimestamp is Greedy-style older-wins arbitration: the transaction
	// with the older begin ordinal has priority. A younger requester waits
	// briefly and aborts itself; an older requester kills the owner. The
	// strictly increasing ordinal gives livelock freedom: the oldest
	// transaction in the system is never killed by this policy.
	CMTimestamp
)

func (p CMPolicy) String() string {
	switch p {
	case CMSuicide:
		return "suicide"
	case CMSpin:
		return "spin"
	case CMKarma:
		return "karma"
	case CMAggressive:
		return "aggressive"
	case CMBackoff:
		return "backoff"
	case CMTimestamp:
		return "timestamp"
	default:
		return fmt.Sprintf("CMPolicy(%d)", uint8(p))
	}
}

// ReaderPolicy arbitrates between a writer acquiring an orec and the
// visible readers registered at its stripe (orecTable.readers): readers
// of any of the stripe's eight orecs count, not only of the written one.
type ReaderPolicy uint8

const (
	// WriterKillsReaders kills all visible readers and waits for their
	// bits to drain (writer priority — matches update-heavy partitions
	// where writers must make progress).
	WriterKillsReaders ReaderPolicy = iota
	// WriterYieldsToReaders waits briefly for readers to finish, then
	// releases the lock and aborts itself (reader priority).
	WriterYieldsToReaders
)

func (p ReaderPolicy) String() string {
	switch p {
	case WriterKillsReaders:
		return "writer-kills"
	case WriterYieldsToReaders:
		return "writer-yields"
	default:
		return fmt.Sprintf("ReaderPolicy(%d)", uint8(p))
	}
}

// PartConfig is the complete concurrency-control configuration of one
// partition. The runtime tuner mutates these per partition; a single
// global STM corresponds to one partition holding everything.
type PartConfig struct {
	Read    ReadMode
	Acquire AcquireMode
	Write   WriteMode
	// LockBits: the partition's orec table has 1<<LockBits entries and
	// takes 8<<LockBits bytes (512 KiB at 16), an eighth more under
	// VisibleReads, whose reader bitmaps (one word per eight orecs) sit
	// beside the lock words.
	LockBits uint
	// GranShift: 1<<GranShift consecutive words share one orec
	// (conflict-detection granularity).
	GranShift uint
	// CM is the lock-conflict policy.
	CM CMPolicy
	// ReaderCM arbitrates writers against visible readers.
	ReaderCM ReaderPolicy
	// HistCap, when nonzero, attaches a multi-version snapshot store of
	// that many overwrite records to the partition (internal/mvstore):
	// update commits append the values they overwrite, and read-only
	// transactions in snapshot mode (the Snapshot option) reconstruct
	// reads at their pinned snapshot from it instead of extending or
	// aborting. 0 disables the store (and with it any append cost on the
	// commit path). Capacity is rounded up to a power of two and clamped
	// to mvstore.MaxCap (Normalize applies the same ceiling, so the
	// store's round-up loop can never be fed a value that overflows it).
	HistCap uint
}

// DefaultPartConfig mirrors TinySTM's defaults: encounter-time locking,
// write-back, invisible reads, 2^16 orecs mapping one word per orec
// stripe, bounded spinning.
func DefaultPartConfig() PartConfig {
	return PartConfig{
		Read:      InvisibleReads,
		Acquire:   EncounterTime,
		Write:     WriteBack,
		LockBits:  16,
		GranShift: 0,
		CM:        CMSpin,
		ReaderCM:  WriterKillsReaders,
	}
}

// Normalize clamps invalid combinations and ranges; it returns the
// effective configuration the engine will run.
func (c PartConfig) Normalize() PartConfig {
	if c.Acquire == CommitTime {
		c.Write = WriteBack // commit-time locking cannot write through
	}
	if c.LockBits < 2 {
		c.LockBits = 2
	}
	if c.LockBits > 24 {
		c.LockBits = 24
	}
	if c.GranShift > 16 {
		c.GranShift = 16
	}
	if c.HistCap > mvstore.MaxCap {
		// Keep in lockstep with the store's own clamp: mvstore.New rounds
		// capacity up to a power of two, and an unbounded request would
		// overflow that loop (see mvstore.MaxCap).
		c.HistCap = mvstore.MaxCap
	}
	return c
}

// String renders the configuration compactly, e.g.
// "invisible/encounter/write-back lockBits=16 gran=1 cm=spin".
func (c PartConfig) String() string {
	s := fmt.Sprintf("%s/%s/%s lockBits=%d gran=%d cm=%s rcm=%s",
		c.Read, c.Acquire, c.Write, c.LockBits, uint64(1)<<c.GranShift, c.CM, c.ReaderCM)
	if c.HistCap > 0 {
		s += fmt.Sprintf(" hist=%d", c.HistCap)
	}
	return s
}
