package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/memory"
	"repro/internal/mvstore"
	"repro/internal/stats"
)

// PointerRecorder receives pointer-store events during profiling runs. The
// partition analyzer implements it; the engine stays ignorant of how
// partitions are derived.
type PointerRecorder interface {
	RecordPointer(from, to memory.SiteID)
}

// topology maps addresses to partitions. It is immutable; the engine swaps
// in a new topology (under quiescence) when a partitioning plan is
// installed.
type topology struct {
	// sitePart[s] is the partition owning allocation site s. Sites beyond
	// the slice fall into GlobalPartition.
	sitePart []PartID
	parts    []*Partition
}

func (t *topology) partForSite(site memory.SiteID) *Partition {
	if int(site) < len(t.sitePart) {
		return t.parts[t.sitePart[site]]
	}
	return t.parts[GlobalPartition]
}

// Engine is the STM runtime: commit clock, partitions, the Thread slot
// pool, and the quiescence gate used for reconfiguration.
type Engine struct {
	arena      *memory.Arena
	blockShift uint
	blockSite  []memory.SiteID // arena's block→site table (shared slice)

	// gate, when nonzero, blocks new transaction attempts; reconfigurers
	// raise it and wait for all threads to go inactive.
	gate atomic.Uint32

	// epochs is the published-reader table behind the reclamation horizon:
	// every transaction publishes a clock stamp at begin and clears it at
	// finish, and retired heap objects recycle only once the minimum over
	// live stamps passes their retire stamp (see reclaim.go).
	epochs *epoch.Table

	topo atomic.Pointer[topology]

	mu      sync.Mutex // serializes pool growth, plan installs and stats reads
	threads [MaxThreads]atomic.Pointer[Thread]

	// poolState is the goroutine-native slot pool behind RunPooled
	// (pool.go); it is the only creator of the Threads in the registry.
	poolState
	// retired holds the counters InstallPlan folded out of the replaced
	// per-thread blocks, so statistics survive plan installs; guarded by
	// mu.
	retired []PartStats

	profiling atomic.Bool
	profMu    sync.Mutex
	profiler  PointerRecorder

	// stwCount counts quiescent reconfigurations.
	stwCount atomic.Uint64

	// walState, when set, makes every update commit tee its write set
	// into the attached redo log (wal.go). One atomic pointer load per
	// commit when unset; see SetWAL.
	walState atomic.Pointer[walBox]

	// latency, when set, makes every attempt measure its duration and
	// every committed attempt record it into the touched partitions'
	// commit-latency histograms (PartThreadStats.Lat). Off by default: the
	// cost when on is two clock reads per attempt plus one histogram
	// increment per touched partition at commit.
	latency atomic.Bool

	// yieldMask, when nonzero, makes every transactional operation a
	// potential scheduling point: a thread yields the processor with
	// probability 1/(yieldMask+1) per operation. On machines with fewer
	// cores than worker threads (notably the single-CPU hosts these
	// experiments run on) this simulates the instruction-level
	// interleaving of a real multiprocessor, so conflict windows inside
	// transactions actually overlap. Benchmarks enable it; unit tests of
	// the protocol logic run with it off.
	yieldMask atomic.Uint64

	// clock is the commit counter (TL2/TinySTM's global version clock):
	// every update commit ticks it once and every attempt samples it at
	// begin. It is the only engine word transactions write, and it gets a
	// line of its own so those writes never invalidate the read-mostly
	// fields above, which every attempt of every thread loads.
	_     [cacheLine]byte
	clock atomic.Uint64
	_     [cacheLine - 8]byte
}

// initialStamp is the value the commit clock starts at. It must be at
// least 1: a freshly built ownership-record table has every version at 0,
// and the protocol's readability rule is "version ≤ snapshot", so keeping
// the clock (and hence every snapshot) at or above 1 guarantees a fresh
// orec is always readable.
const initialStamp = 1

// NewEngine creates an engine over arena with a single global partition
// configured by cfg.
func NewEngine(arena *memory.Arena, cfg PartConfig) *Engine {
	e := &Engine{
		arena:      arena,
		blockShift: arena.BlockShift(),
		blockSite:  arena.BlockSiteTable(),
		epochs:     epoch.New(),
	}
	global := newPartition(GlobalPartition, "global", cfg)
	e.topo.Store(&topology{parts: []*Partition{global}})
	e.clock.Store(initialStamp)
	return e
}

// Arena returns the transactional heap.
func (e *Engine) Arena() *memory.Arena { return e.arena }

// Clock returns the commit clock: an upper bound on every version stored
// in any orec.
func (e *Engine) Clock() uint64 { return e.clock.Load() }

// AdvanceClock adds delta to the commit clock; WAL recovery uses it to
// re-seed the clock past every recovered version, and stress tests to
// exercise large-timestamp behaviour.
func (e *Engine) AdvanceClock(delta uint64) { e.clock.Add(delta) }

// SetYieldEveryOps enables interleaving simulation: each transactional
// operation yields the processor with probability 1/n (n must be a power
// of two; 0 disables). See the yieldMask field for rationale.
func (e *Engine) SetYieldEveryOps(n uint64) {
	if n == 0 {
		e.yieldMask.Store(0)
		return
	}
	// Round up to a power of two and store the mask.
	m := uint64(1)
	for m < n {
		m <<= 1
	}
	e.yieldMask.Store(m - 1)
}

// threadBySlot returns the thread occupying slot, or nil.
func (e *Engine) threadBySlot(slot int) *Thread {
	if slot < 0 || slot >= MaxThreads {
		return nil
	}
	return e.threads[slot].Load()
}

// recordPointer forwards a pointer-store edge to the installed profiler.
func (e *Engine) recordPointer(from, to memory.SiteID) {
	e.profMu.Lock()
	p := e.profiler
	e.profMu.Unlock()
	if p != nil {
		p.RecordPointer(from, to)
	}
}

// Partitions returns the current partition list (index = PartID).
func (e *Engine) Partitions() []*Partition {
	t := e.topo.Load()
	out := make([]*Partition, len(t.parts))
	copy(out, t.parts)
	return out
}

// Partition returns the partition with the given id, or nil.
func (e *Engine) Partition(id PartID) *Partition {
	t := e.topo.Load()
	if int(id) >= len(t.parts) {
		return nil
	}
	return t.parts[id]
}

// partOf maps a word address to its partition: blockSite lookup then
// site→partition lookup. Two L1-resident slice indexes; this is the whole
// runtime cost of partition tracking on the access path (measured by the
// table2 experiment).
func (e *Engine) partOf(t *topology, addr memory.Addr) *Partition {
	site := e.blockSite[uint64(addr)>>e.blockShift]
	return t.partForSite(site)
}

// PartitionOfAddr reports which partition addr currently belongs to.
func (e *Engine) PartitionOfAddr(addr memory.Addr) *Partition {
	return e.partOf(e.topo.Load(), addr)
}

// SetProfiler installs the pointer-store recorder and enables or disables
// profiling. Profiling runs record site connectivity for the partition
// analyzer; measured runs disable it.
func (e *Engine) SetProfiler(p PointerRecorder, enabled bool) {
	e.profMu.Lock()
	e.profiler = p
	e.profMu.Unlock()
	e.profiling.Store(enabled)
}

// InstallPlan replaces the partitioning topology: sitePart[s] gives the
// partition index for site s, and names/cfgs describe the partitions
// (index = PartID; entry 0 is the global/default partition and must be
// present). The swap happens under quiescence.
func (e *Engine) InstallPlan(sitePart []PartID, names []string, cfgs []PartConfig) error {
	if len(names) == 0 || len(cfgs) != len(names) {
		return fmt.Errorf("core: malformed plan: %d names, %d configs", len(names), len(cfgs))
	}
	for _, p := range sitePart {
		if int(p) >= len(names) {
			return fmt.Errorf("core: plan references partition %d of %d", p, len(names))
		}
	}
	parts := make([]*Partition, len(names))
	for i := range names {
		parts[i] = newPartition(PartID(i), names[i], cfgs[i])
	}
	sp := make([]PartID, len(sitePart))
	copy(sp, sitePart)

	e.quiesce(func() {
		// mu serializes the stats swap against pool growth and against
		// StatsSnapshot's read of the retired aggregate.
		e.mu.Lock()
		defer e.mu.Unlock()
		oldTopo := e.topo.Load()
		e.topo.Store(&topology{sitePart: sp, parts: parts})
		// A partition's identity is its site membership. When a new
		// partition owns exactly the sites an old one did, its history is
		// still attributable and is carried over onto the new PartID
		// (site-keyed carryover); everything else — the old global
		// partition, and partitions whose membership changed — folds into
		// the global partition's retired aggregate. Either way every
		// counter survives, so engine-wide totals (and throughput measured
		// across the install) stay monotonic. Snapshots serialize against
		// this block on mu (StatsSnapshot), so no reader can observe the
		// swap half-applied.
		oldTotals := make([]PartStats, len(oldTopo.parts))
		for i := range e.retired {
			if i < len(oldTotals) {
				oldTotals[i].add(&e.retired[i])
			}
		}
		for i := range e.threads {
			th := e.threads[i].Load()
			if th == nil {
				continue
			}
			old := *th.stats.Load()
			fresh := make([]PartThreadStats, len(parts))
			th.stats.Store(&fresh)
			for p := range old {
				if p < len(oldTotals) {
					old[p].accumulateInto(&oldTotals[p])
				}
			}
		}
		oldSig := siteSignatures(oldTopo.sitePart, len(oldTopo.parts))
		newSig := siteSignatures(sp, len(parts))
		carried := make([]bool, len(oldTotals))
		retired := make([]PartStats, len(parts))
		for newPid := 1; newPid < len(parts); newPid++ {
			sig := newSig[newPid]
			if sig == "" {
				continue // partition with no sites: no identity to match
			}
			for oldPid := 1; oldPid < len(oldTotals); oldPid++ {
				if !carried[oldPid] && oldSig[oldPid] == sig {
					retired[newPid].add(&oldTotals[oldPid])
					carried[oldPid] = true
					break
				}
			}
		}
		var carry PartStats
		for oldPid := range oldTotals {
			if oldPid == 0 || !carried[oldPid] {
				carry.add(&oldTotals[oldPid])
			}
		}
		retired[GlobalPartition].add(&carry)
		for i := range retired {
			retired[i].Part = PartID(i)
		}
		e.retired = retired
	})
	return nil
}

// siteSignatures returns, for each partition id, a canonical encoding of
// the site set assigned to it by sitePart ("" for the global partition
// and for partitions owning no sites). Two partitions across a plan
// install are the same logical partition exactly when their signatures
// match.
func siteSignatures(sitePart []PartID, nparts int) []string {
	var bufs = make([][]byte, nparts)
	for s, p := range sitePart {
		if p == GlobalPartition || int(p) >= nparts {
			continue
		}
		bufs[p] = fmt.Appendf(bufs[p], "%d,", s)
	}
	out := make([]string, nparts)
	for i, b := range bufs {
		out[i] = string(b)
	}
	return out
}

// Reconfigure atomically replaces one partition's configuration (and its
// orec table, rebuilt for the new geometry) under quiescence. This is the
// tuner's actuation point.
func (e *Engine) Reconfigure(id PartID, cfg PartConfig) error {
	p := e.Partition(id)
	if p == nil {
		return fmt.Errorf("core: no partition %d", id)
	}
	cfg = cfg.Normalize()
	e.quiesce(func() {
		old := p.state.Load()
		p.state.Store(newPartState(p, cfg, old.gen+1))
	})
	return nil
}

// quiesce raises the gate, waits for every Thread to leave its
// transaction, runs fn, and reopens the gate. New orec tables installed
// by fn start with all versions at 0, which is safe because fresh
// transactions take snapshots at or above the current clock and version 0
// never exceeds any snapshot.
func (e *Engine) quiesce(fn func()) {
	for !e.gate.CompareAndSwap(0, 1) {
		runtime.Gosched() // another reconfiguration in flight
	}
	for i := range e.threads {
		th := e.threads[i].Load()
		if th == nil {
			continue
		}
		for th.active.Load() != 0 {
			runtime.Gosched()
		}
	}
	fn()
	e.stwCount.Add(1)
	e.gate.Store(0)
}

// StatsSnapshot aggregates per-thread counters for partition id. Counters
// are atomics their owning threads add to once per attempt (see
// PartThreadStats for what that makes visible when); the aggregate is a
// momentary view, and every counter is monotonic, so deltas between
// snapshots are exact in the long run — which is what the tuner consumes.
// Across a plan install the engine folds all prior counters into the
// global partition's aggregate (see InstallPlan), so engine-wide totals
// keep growing monotonically even though per-partition attribution resets
// with the new partition identities.
func (e *Engine) StatsSnapshot(id PartID) PartStats {
	p := e.Partition(id)
	out := PartStats{Part: id}
	if p != nil {
		out.Name = p.name
	}
	// mu covers both the retired aggregate and the walk over the per-thread
	// slices, so a snapshot serializes against a concurrent plan install
	// (which swaps the slices and folds them into retired under the same
	// lock): it observes the engine entirely before or entirely after the
	// install, never a mix — which is what keeps totals monotonic for
	// delta-taking consumers (bench harness, tuner).
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(id) < len(e.retired) {
		out.add(&e.retired[id])
	}
	for i := range e.threads {
		th := e.threads[i].Load()
		if th == nil {
			continue
		}
		st := *th.stats.Load()
		if int(id) >= len(st) {
			continue
		}
		st[id].accumulateInto(&out)
	}
	return out
}

// SnapshotHistory returns a momentary reading of partition id's
// multi-version store: capacity, total appends, live records and the
// retained version span ("retention depth"). The zero Stats is returned
// for unknown partitions and for partitions with no store configured
// (HistCap == 0).
func (e *Engine) SnapshotHistory(id PartID) mvstore.Stats {
	p := e.Partition(id)
	if p == nil {
		return mvstore.Stats{}
	}
	st := p.loadState()
	if st.hist == nil {
		return mvstore.Stats{}
	}
	return st.hist.Stats()
}

// SetLatencyTracking enables or disables per-attempt latency measurement:
// when on, every committed attempt records its duration (attempt begin to
// commit, retries excluded — each attempt is its own sample) into the
// commit-latency histogram of every partition it touched. Safe to toggle
// live; samples recorded while on remain in the histograms.
func (e *Engine) SetLatencyTracking(on bool) { e.latency.Store(on) }

// LatencySnapshot returns the engine-wide commit-latency histogram:
// every partition's per-thread shards merged (live threads and the
// retired aggregate). Empty unless SetLatencyTracking(true) has been
// recording.
func (e *Engine) LatencySnapshot() stats.HistSnapshot {
	var out stats.HistSnapshot
	for _, ps := range e.AllStats() {
		out = out.Add(ps.Latency)
	}
	return out
}

// AllStats returns a snapshot for every partition.
func (e *Engine) AllStats() []PartStats {
	t := e.topo.Load()
	out := make([]PartStats, len(t.parts))
	for i := range t.parts {
		out[i] = e.StatsSnapshot(PartID(i))
	}
	return out
}

func (e *Engine) run(th *Thread, cfg runCfg, fn func(*Tx) error) error {
	tx := &th.tx
	if cfg.deferSeq != nil {
		*cfg.deferSeq = 0
	}
	readOnly, snap := cfg.readOnly, cfg.snap
	// Only the first attempt of a read-only Run goes without a read set;
	// any abort degrades the rest of the Run to logged reads (see
	// Tx.unlogged).
	unlogged := readOnly
	attempt := 0
	for {
		attempt++
		th.enterGate()
		cause, userErr := e.attempt(tx, th, readOnly, snap, unlogged, fn)
		th.exitGate()
		switch {
		case cause == AbortNone && userErr == nil:
			if box := tx.walDst; box != nil && box.sync {
				// Sync durability: park until this commit's redo record is
				// fsynced. The transaction has fully finished (locks
				// released, gate exited), so waiting here stalls only this
				// caller, never the protocol. When the record cannot become
				// durable — the log was already down at publish time
				// (walSeq 0), or died or closed before the fsync — the
				// commit has still applied in memory, and that divergence
				// must surface as ErrNotDurable, never as a silent nil.
				// Under DeferDurable the wait is the caller's, on the
				// sequence handed back.
				switch {
				case tx.walSeq == 0:
					return &NotDurableError{}
				case cfg.deferSeq != nil:
					*cfg.deferSeq = tx.walSeq
				case !box.log.WaitDurable(tx.walSeq):
					return &NotDurableError{Seq: tx.walSeq}
				}
			}
			return nil
		case userErr != nil:
			return userErr
		}
		if cfg.onAbort != nil {
			cfg.onAbort(cause, attempt)
		}
		if cfg.maxAttempts > 0 && attempt >= cfg.maxAttempts {
			return &MaxAttemptsError{Attempts: attempt, Cause: cause}
		}
		unlogged = false
		if cause == AbortUpgrade {
			readOnly = false
			snap = false
			continue
		}
		e.backoff(th, attempt)
	}
}

// attempt executes one try of fn. It returns (AbortNone, nil) on commit,
// (cause, nil) on a conflict abort, and (AbortExplicit, err) when user
// code aborted with an error.
func (e *Engine) attempt(tx *Tx, th *Thread, readOnly, snap, unlogged bool, fn func(*Tx) error) (cause AbortCause, userErr error) {
	defer func() {
		if r := recover(); r != nil {
			sig, ok := r.(abortSignal)
			if !ok {
				// A user panic: roll the transaction back and leave the
				// quiescence gate (the unwind skips run's exitGate, and a
				// slot left active blocks every later quiesce), then let
				// the panic continue so the caller sees it.
				tx.rollback(AbortExplicit)
				th.exitGate()
				panic(r)
			}
			tx.rollback(sig.cause)
			cause = sig.cause
		}
	}()
	tx.begin(readOnly, snap, unlogged)
	if err := fn(tx); err != nil {
		tx.rollback(AbortExplicit)
		return AbortExplicit, err
	}
	tx.commit()
	return AbortNone, nil
}

// backoff performs randomized exponential backoff between attempts; the
// schedule matches TinySTM's (cheap spin first, escalating to yields and
// short sleeps so that pathological livelocks settle).
func (e *Engine) backoff(th *Thread, attempt int) {
	if attempt < 2 {
		return
	}
	shift := attempt - 2
	if shift > 14 {
		shift = 14
	}
	max := uint64(1) << shift // in spin quanta
	spins := th.nextRand() % max
	if spins < 16 {
		spinWait(spins * 8)
		return
	}
	if spins < 512 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(spins>>3) * time.Microsecond)
}
