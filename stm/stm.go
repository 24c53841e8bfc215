// Package stm is the public API of the partitioned software transactional
// memory: an object/word hybrid STM (TinySTM family) whose heap is
// automatically partitioned into independently tuned regions, reproducing
// Riegel, Fetzer & Felber, "Automatic Data Partitioning in Software
// Transactional Memories" (SPAA 2008).
//
// # Model
//
// The STM manages a word-addressable heap (package internal/memory):
// objects are allocated at named allocation sites and addressed by Addr.
// Transactions are goroutine-native: any goroutine calls Runtime.Run,
// the single options-driven entrypoint, with no per-goroutine setup;
// typed multi-word objects live behind generic Ref handles:
//
//	rt, _ := stm.New(stm.Config{HeapWords: 1 << 22})
//	site := rt.RegisterSite("app.account")
//
//	type Account struct{ Balance, Limit uint64 }
//	var acct stm.Ref[Account]
//	rt.Run(func(tx *stm.Tx) error {
//		acct = stm.AllocRef[Account](tx, site)
//		acct.Store(tx, Account{Balance: 100, Limit: 500})
//		return nil
//	})
//	rt.Run(func(tx *stm.Tx) error {
//		a := acct.Load(tx) // one multi-word read, one footprint touch
//		a.Balance++
//		acct.Store(tx, a)
//		return nil
//	})
//
// Underneath, Run borrows one of the MaxThreads slots from the runtime's
// pool for the duration of the call: the steady-state borrow/return is
// lock-free (one CAS each way through a small victim cache, so a hot
// goroutine keeps re-claiming the slot it used last with its allocator
// and transaction state warm), and when every slot is busy the call parks
// on a FIFO queue until one frees — admission control, never a failure.
// Slots are created on demand and never released.
//
// Functional options select the execution mode: Run(fn) is an update
// transaction retried until commit; Run(fn, stm.ReadOnly()) takes the
// read-only fast path; Run(fn, stm.Snapshot()) reads at a pinned snapshot
// served by the multi-version store (see below); stm.MaxAttempts bounds
// the retry loop (ErrMaxAttempts) and stm.OnAbort observes every aborted
// attempt. Runtime.Run is the only way to start a transaction. What runs
// did is read from per-partition counters (Stats),
// commit latency (LatencyStats), reclamation (ReclaimStats) and the redo
// log (WALStats).
//
// # Words and objects
//
// The word API (Tx.Load, Tx.Store, Tx.LoadAddr, Tx.StoreAddr) is the
// low-level escape hatch: it addresses single 64-bit words and is what
// the data-structure layer builds linked structures from. The object API
// sits on the multi-word primitives Tx.LoadWords, Tx.StoreWords and
// Tx.LoadRange, which touch per-access state (partition lookup, footprint
// registration, statistics) once per object instead of once per word and
// read words sharing an ownership record under one lock sample. Ref[T]
// wraps them with a typed, fixed-size view: any pointer-free Go type
// round-trips through its heap words (AllocRef, RefAt, Ref.Load,
// Ref.Store).
//
// # Partitioning
//
// A profiling run records which allocation sites are connected by stored
// pointers (Tx.StoreAddr); connected sites form one logical data
// structure. AutoPartition freezes those groups into partitions, each with
// its own ownership-record table and concurrency-control configuration.
// The runtime tuner (StartTuner) then adapts each partition independently:
// read visibility, and conflict-detection granularity.
//
//	rt.StartProfiling()
//	runWarmup()
//	plan := rt.StopProfilingAndPartition()
//	fmt.Print(plan.Describe(rt.Sites()))
//	rt.StartTuner(stm.DefaultTunerConfig())
//
// # Snapshot mode
//
// Partitions can retain a bounded multi-version history of overwritten
// values (internal/mvstore): update commits append the values they
// replace — back to back per commit, so a multi-word object written by
// one commit forms a contiguous grouped record — and read-only
// transactions run through Run(fn, stm.Snapshot()) read at the snapshot
// sampled when the attempt begins, reconstructing any location a writer
// has since overwritten from that history (a whole object in one index
// probe when it was written by a single commit). The first attempt of
// such a Run is pinned: on a partition that has a store it keeps no read
// set at all — every read is either current at the snapshot or
// reconstructed at it, so there is nothing to validate and the snapshot
// never moves. While the needed records are retained it never aborts,
// no matter how heavy the write traffic: long analytic scans coexist
// with saturating writers at the cost of the read protocol alone. When
// the store cannot serve a stale read (record evicted), the pinned
// attempt aborts and the Run degrades to logging: every retry records
// its reads and takes the ordinary validate/extend path, so correctness
// and progress never depend on retention. Partitions without a store are
// unaffected: snapshot-mode reads there are logged, validated and
// extended from the first attempt, as any invisible read is.
// Enable per partition with PartConfig.HistCap, or for the whole runtime
// with Config.SnapshotHistory; SnapshotHistoryStats reports capacity,
// appends and the retained version span.
//
// All transactions remain serializable across partitions: one commit
// clock orders every commit, partitioning only splits conflict detection.
package stm

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/mvstore"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/tuning"
	"repro/internal/wal"
)

// Re-exported types: the facade keeps one import path for users while the
// implementation lives in focused internal packages.
type (
	// Addr is a word address in the transactional heap; 0 is nil.
	Addr = memory.Addr
	// SiteID names an allocation site.
	SiteID = memory.SiteID
	// Tx is a transaction handle, valid only inside Run's fn.
	Tx = core.Tx
	// PartConfig is a partition's concurrency-control configuration.
	PartConfig = core.PartConfig
	// ReadMode selects invisible vs visible reads.
	ReadMode = core.ReadMode
	// AcquireMode selects encounter-time vs commit-time locking.
	AcquireMode = core.AcquireMode
	// WriteMode selects write-back vs write-through.
	WriteMode = core.WriteMode
	// CMPolicy selects the lock-conflict contention manager.
	CMPolicy = core.CMPolicy
	// ReaderPolicy arbitrates writers against visible readers.
	ReaderPolicy = core.ReaderPolicy
	// AbortCause classifies why an attempt aborted.
	AbortCause = core.AbortCause
	// PartID identifies a partition.
	PartID = core.PartID
	// PartStats is an aggregated statistics snapshot for one partition.
	PartStats = core.PartStats
	// Plan is a frozen site→partition assignment.
	Plan = partition.Plan
	// TunerConfig configures the runtime tuner.
	TunerConfig = tuning.Config
	// TunerDecision records one tuner actuation.
	TunerDecision = tuning.Decision
	// SnapshotHistoryStats is a momentary reading of one partition's
	// multi-version snapshot store: capacity, appends, live records and
	// the retained version span.
	SnapshotHistoryStats = mvstore.Stats
	// TxOpt is a functional option selecting how Run executes a
	// transaction (see ReadOnly, Snapshot, MaxAttempts, OnAbort).
	TxOpt = core.TxOpt
	// PoolStats is a momentary reading of the Runtime.Run slot pool.
	PoolStats = core.PoolStats
	// ReclaimStats is a momentary reading of epoch-based memory
	// reclamation: horizon, lag, and retired/reclaimed word totals.
	ReclaimStats = core.ReclaimStats
	// LatencyStats is a mergeable latency-histogram snapshot (HDR-style
	// log-linear buckets, ~6% bounded relative error): Count, Mean,
	// Quantile, Max, plus Add/Sub for unions and windowed deltas.
	LatencyStats = stats.HistSnapshot
)

// ErrMaxAttempts is the sentinel matched (via errors.Is) by the error Run
// returns when a MaxAttempts budget is exhausted before the transaction
// commits. The concrete error is a *MaxAttemptsError carrying the final
// abort cause.
var ErrMaxAttempts = core.ErrMaxAttempts

// MaxAttemptsError is the concrete error returned on an exhausted
// MaxAttempts budget: errors.As gives access to the attempt count and the
// last attempt's abort cause.
type MaxAttemptsError = core.MaxAttemptsError

// ReadOnly marks a Run transaction read-only: it takes the read-only fast
// path, and transparently restarts in update mode if it writes. The first
// attempt keeps no read set, as TL2's read-only transactions do: its reads
// must all be current at the snapshot sampled at begin. A read made stale
// by a later commit (or a commit that also read a visible-reads partition)
// aborts it, and every retry of that Run logs its reads and validates and
// extends as usual.
func ReadOnly() TxOpt { return core.ReadOnly() }

// Snapshot runs a Run transaction in snapshot mode (implies ReadOnly):
// reads are served at the snapshot sampled at begin, with overwritten
// values reconstructed from the touched partitions' multi-version stores.
// The first attempt is pinned — no read set on store-backed partitions,
// no validation, no extension — and abort-free while the needed records
// are retained; a miss aborts it and every retry of that Run logs its
// reads and validates/extends as usual. Partitions without a store log
// from the first attempt. See the package comment's snapshot-mode
// section.
func Snapshot() TxOpt { return core.Snapshot() }

// MaxAttempts bounds Run's retry loop: after n aborted attempts Run
// returns ErrMaxAttempts (n <= 0 means retry forever, the default). A
// ReadOnly or Snapshot Run may spend one attempt of the budget on its
// unlogged first attempt.
func MaxAttempts(n int) TxOpt { return core.MaxAttempts(n) }

// OnAbort installs a hook observing every aborted attempt of a Run
// transaction; it runs after rollback, outside the transaction, with the
// abort cause and the 1-based attempt number.
func OnAbort(fn func(cause AbortCause, attempt int)) TxOpt { return core.OnAbort(fn) }

// DeferDurable hands a DurabilitySync Run's durability wait to its caller:
// Run returns at commit, without parking for the fsync, and stores in *seq
// the log sequence the commit's survival hangs on. The caller owes
// Runtime.WaitDurable(*seq) before it acknowledges the commit to anyone;
// until that wait succeeds the commit is in memory only (other
// transactions may already read it). *seq is 0 when Run returns and no
// wait is owed — nothing was written, Run failed, or the runtime is not
// DurabilitySync — and a commit the log refused outright is still
// ErrNotDurable at once. Sequences grow in commit order: one wait on the
// largest of several deferred sequences covers all of them, which is how a
// caller shares one group commit among commits it makes back to back.
// Without this option Run is unchanged.
func DeferDurable(seq *uint64) TxOpt { return core.DeferDurable(seq) }

// Nil is the null heap address.
const Nil = memory.Nil

// Re-exported configuration enums.
const (
	InvisibleReads = core.InvisibleReads
	VisibleReads   = core.VisibleReads
	EncounterTime  = core.EncounterTime
	CommitTime     = core.CommitTime
	WriteBack      = core.WriteBack
	WriteThrough   = core.WriteThrough
	CMSuicide      = core.CMSuicide
	CMSpin         = core.CMSpin
	CMKarma        = core.CMKarma
	CMAggressive   = core.CMAggressive
	CMBackoff      = core.CMBackoff
	CMTimestamp    = core.CMTimestamp

	WriterKillsReaders    = core.WriterKillsReaders
	WriterYieldsToReaders = core.WriterYieldsToReaders
)

// Abort causes, for indexing PartStats.Aborts.
const (
	AbortLockedOnRead  = core.AbortLockedOnRead
	AbortLockedOnWrite = core.AbortLockedOnWrite
	AbortValidation    = core.AbortValidation
	AbortKilled        = core.AbortKilled
	AbortReaderWall    = core.AbortReaderWall
	AbortUpgrade       = core.AbortUpgrade
	AbortExplicit      = core.AbortExplicit
)

// GlobalPartition is the id of the default partition.
const GlobalPartition = core.GlobalPartition

// MaxThreads is the number of transactions that can run at once (the
// size of the Run slot pool).
const MaxThreads = core.MaxThreads

// DefaultPartConfig returns the TinySTM-style default configuration.
func DefaultPartConfig() PartConfig { return core.DefaultPartConfig() }

// DefaultTunerConfig returns the tuner defaults used in the experiments.
func DefaultTunerConfig() TunerConfig { return tuning.DefaultConfig() }

// Config configures a Runtime.
type Config struct {
	// HeapWords is the transactional heap capacity in 64-bit words
	// (allocated eagerly). Default 1<<22 (32 MiB).
	HeapWords uint64
	// BlockShift is log2 of the heap block size in words (a block is the
	// unit of site ownership). Default 12.
	BlockShift uint
	// Default is the initial configuration of the global partition (and
	// of discovered partitions until the tuner specializes them).
	// Zero value: DefaultPartConfig.
	Default *PartConfig
	// YieldEveryOps, when nonzero, enables interleaving simulation: each
	// transactional operation becomes a scheduling point with probability
	// 1/YieldEveryOps. Use on hosts with fewer cores than workers so
	// transaction conflict windows actually overlap.
	YieldEveryOps uint64
	// SnapshotHistory, when nonzero, attaches a multi-version snapshot
	// store of that many overwrite records to every partition (it fills
	// PartConfig.HistCap on the default configuration), enabling
	// abort-free read-only transactions via Run(fn, Snapshot()). Zero
	// leaves snapshot history off; individual partitions can still opt in
	// through their own HistCap.
	//
	// Precedence against Default is explicit: SnapshotHistory fills
	// Default.HistCap only when the latter is zero (or when both agree);
	// setting both to different nonzero values is a configuration
	// conflict and New returns an error rather than silently preferring
	// either.
	SnapshotHistory uint
	// LatencyStats enables per-attempt commit-latency tracking from the
	// start: every committed attempt records its duration into the touched
	// partitions' histograms, readable via Runtime.LatencyStats and
	// PartStats.Latency. Off by default (one clock read per attempt plus
	// one histogram increment per touched partition when on); can also be
	// toggled live with Runtime.SetLatencyTracking.
	LatencyStats bool
	// WAL, when non-nil, makes the heap durable: commits tee their write
	// sets into a group-committed redo log in WAL.Dir, and New recovers
	// the heap from the directory's checkpoint and log tail before
	// returning (Runtime.Recovery reports what it found). See WALConfig
	// in wal.go.
	WAL *WALConfig
}

// Runtime owns the heap, the STM engine, the partition analyzer and the
// tuner.
type Runtime struct {
	arena    *memory.Arena
	eng      *core.Engine
	analyzer *partition.Analyzer
	tuner    *tuning.Tuner
	baseCfg  PartConfig
	wal      *wal.Log
	sync     bool // commits park until their redo record is fsynced
	recovery *RecoveryInfo
}

// New creates a runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.HeapWords == 0 {
		cfg.HeapWords = 1 << 22
	}
	arena, err := memory.NewArena(memory.Config{
		CapacityWords: cfg.HeapWords,
		BlockShift:    cfg.BlockShift,
	})
	if err != nil {
		return nil, fmt.Errorf("stm: %w", err)
	}
	base := core.DefaultPartConfig()
	if cfg.Default != nil {
		base = cfg.Default.Normalize()
	}
	if cfg.SnapshotHistory > 0 {
		// Explicit merge, never a silent override: SnapshotHistory fills
		// Default.HistCap when that is unset, and conflicting nonzero
		// values are a configuration error (see Config.SnapshotHistory).
		if cfg.Default != nil && cfg.Default.HistCap != 0 && cfg.Default.HistCap != cfg.SnapshotHistory {
			return nil, fmt.Errorf("stm: Config.SnapshotHistory (%d) conflicts with Config.Default.HistCap (%d); set one, or set both equal",
				cfg.SnapshotHistory, cfg.Default.HistCap)
		}
		base.HistCap = cfg.SnapshotHistory
		base = base.Normalize()
	}
	rt := &Runtime{
		arena:    arena,
		eng:      core.NewEngine(arena, base),
		analyzer: partition.NewAnalyzer(),
		baseCfg:  base,
	}
	if cfg.YieldEveryOps > 0 {
		rt.eng.SetYieldEveryOps(cfg.YieldEveryOps)
	}
	if cfg.LatencyStats {
		rt.eng.SetLatencyTracking(true)
	}
	if cfg.WAL != nil {
		if err := rt.attachWAL(cfg.WAL); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// MustNew is New that panics on configuration error.
func MustNew(cfg Config) *Runtime {
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// RegisterSite returns the id for a named allocation site, creating it if
// needed. Register sites at setup; allocation sites are the unit the
// partition analysis groups.
func (r *Runtime) RegisterSite(name string) SiteID {
	return r.arena.Sites().Register(name)
}

// Sites exposes the site table (for reports).
func (r *Runtime) Sites() *memory.Sites { return r.arena.Sites() }

// Run runs fn as one transaction from any goroutine, in the mode
// selected by opts (ReadOnly, Snapshot, MaxAttempts, OnAbort), retrying
// on conflict until it commits. No per-goroutine setup is needed: a slot
// is borrowed from the runtime's pool for the duration of the call and
// returned on completion, a hot goroutine transparently re-claims the
// slot it used last (keeping its allocator and transaction state warm),
// and when all MaxThreads slots are busy the call parks on a FIFO queue
// until one frees — admission control, never a failure.
func (r *Runtime) Run(fn func(*Tx) error, opts ...TxOpt) error {
	return r.eng.RunPooled(fn, opts...)
}

// PoolStats returns a momentary reading of the Run slot pool (size, idle
// slots, warm-path hits, handoffs to parked borrowers, waits).
func (r *Runtime) PoolStats() PoolStats { return r.eng.PoolStats() }

// StartProfiling begins recording pointer-store connectivity for the
// partition analysis. Run a representative warm-up workload while it is
// active; this is the dynamic stand-in for the paper's compile-time pass.
func (r *Runtime) StartProfiling() { r.eng.SetProfiler(r.analyzer, true) }

// StopProfiling stops recording (without building a plan).
func (r *Runtime) StopProfiling() { r.eng.SetProfiler(nil, false) }

// BuildPlan freezes the analyzer's grouping into a Plan without
// installing it; use plan.SetConfig to pre-seed per-partition
// configurations, then InstallPlan.
func (r *Runtime) BuildPlan() *Plan {
	return partition.BuildPlan(r.analyzer, r.arena.Sites(), r.baseCfg)
}

// InstallPlan installs a plan under quiescence.
func (r *Runtime) InstallPlan(p *Plan) error { return p.Install(r.eng) }

// StopProfilingAndPartition stops profiling, builds the plan from the
// observed connectivity, installs it, and returns it.
func (r *Runtime) StopProfilingAndPartition() (*Plan, error) {
	r.StopProfiling()
	p := r.BuildPlan()
	if err := r.InstallPlan(p); err != nil {
		return nil, err
	}
	return p, nil
}

// ManualPartition installs an explicit site-name grouping (the escape
// hatch for programmers who know the structure better than the analysis).
func (r *Runtime) ManualPartition(groups map[string][]string) (*Plan, error) {
	p, err := partition.ManualPlan(r.arena.Sites(), r.baseCfg, groups)
	if err != nil {
		return nil, err
	}
	if err := r.InstallPlan(p); err != nil {
		return nil, err
	}
	return p, nil
}

// SavePlan serializes the plan together with each partition's CURRENT
// engine configuration (i.e. what the tuner learned, not the plan's
// initial configs) as reviewable JSON. Reload it in a later run with
// LoadAndInstallPlanFile to warm-start partitioning and tuning (SavePlanFile
// writes it atomically, with a checksum).
func (r *Runtime) SavePlan(w io.Writer, p *Plan) error {
	return p.Save(w, r.arena.Sites(), r.currentConfigs(p))
}

// currentConfigs collects each partition's live engine configuration,
// falling back to the plan's initial config where the engine has no such
// partition.
func (r *Runtime) currentConfigs(p *Plan) []PartConfig {
	configs := make([]PartConfig, 0, p.NumPartitions())
	for id := 0; id < p.NumPartitions(); id++ {
		if eng := r.eng.Partition(PartID(id)); eng != nil {
			configs = append(configs, eng.Config())
		} else {
			configs = append(configs, p.Configs[id])
		}
	}
	return configs
}

// ErrCorruptPlan marks a plan file that failed integrity validation (torn
// write, bit rot). Warm-start code should treat it like a missing file —
// fall back to a cold start — via errors.Is(err, ErrCorruptPlan).
var ErrCorruptPlan = partition.ErrCorruptPlan

// SavePlanFile is SavePlan straight to a file, written atomically
// (checksummed temp file, fsync, rename, directory fsync): a crash during
// the save leaves the previous plan file intact, and a torn or rotted
// file is rejected by LoadAndInstallPlanFile as ErrCorruptPlan instead of
// being half-parsed.
func (r *Runtime) SavePlanFile(path string, p *Plan) error {
	configs := r.currentConfigs(p)
	return p.SaveFile(path, r.arena.Sites(), configs)
}

// LoadAndInstallPlanFile reads a plan written by SavePlanFile (or a plain
// SavePlan file), validates its checksum, installs it, and returns it. A
// missing file surfaces os.ErrNotExist and a damaged one ErrCorruptPlan;
// warm-start callers typically treat both as "no plan yet".
func (r *Runtime) LoadAndInstallPlanFile(path string) (*Plan, error) {
	p, err := partition.LoadPlanFile(path, r.arena.Sites(), r.baseCfg)
	if err != nil {
		return nil, err
	}
	if err := r.InstallPlan(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Reconfigure replaces one partition's configuration under quiescence.
func (r *Runtime) Reconfigure(id PartID, cfg PartConfig) error {
	return r.eng.Reconfigure(id, cfg)
}

// PartitionConfig returns partition id's current configuration.
func (r *Runtime) PartitionConfig(id PartID) (PartConfig, error) {
	p := r.eng.Partition(id)
	if p == nil {
		return PartConfig{}, fmt.Errorf("stm: no partition %d", id)
	}
	return p.Config(), nil
}

// NumPartitions returns the number of partitions (≥1; partition 0 is the
// global default).
func (r *Runtime) NumPartitions() int { return len(r.eng.Partitions()) }

// PartitionNames returns partition display names indexed by PartID.
func (r *Runtime) PartitionNames() []string {
	parts := r.eng.Partitions()
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = p.Name()
	}
	return out
}

// StartTuner launches the per-partition runtime tuner.
func (r *Runtime) StartTuner(cfg TunerConfig) {
	if r.tuner != nil {
		return
	}
	r.tuner = tuning.New(r.eng, cfg)
	r.tuner.Start()
}

// StopTuner stops the tuner and returns its decision trace.
func (r *Runtime) StopTuner() []TunerDecision {
	if r.tuner == nil {
		return nil
	}
	r.tuner.Stop()
	tr := r.tuner.Trace()
	r.tuner = nil
	return tr
}

// TunerTrace returns the decisions taken so far (nil when no tuner runs).
func (r *Runtime) TunerTrace() []TunerDecision {
	if r.tuner == nil {
		return nil
	}
	return r.tuner.Trace()
}

// SnapshotHistory returns a momentary reading of partition id's
// multi-version snapshot store (the zero value when the partition has no
// store configured).
func (r *Runtime) SnapshotHistory(id PartID) SnapshotHistoryStats {
	return r.eng.SnapshotHistory(id)
}

// Stats returns a statistics snapshot for every partition.
func (r *Runtime) Stats() []PartStats { return r.eng.AllStats() }

// SetLatencyTracking enables or disables per-attempt commit-latency
// recording (see Config.LatencyStats). Safe to toggle live.
func (r *Runtime) SetLatencyTracking(on bool) { r.eng.SetLatencyTracking(on) }

// LatencyStats returns the runtime-wide commit-latency histogram —
// every partition's per-thread shards merged. Empty unless latency
// tracking is (or was) enabled via Config.LatencyStats or
// SetLatencyTracking. Per-partition breakdowns are on PartStats.Latency.
func (r *Runtime) LatencyStats() LatencyStats { return r.eng.LatencySnapshot() }

// HeapInUseBlocks reports how many heap blocks have been handed out.
func (r *Runtime) HeapInUseBlocks() uint64 { return r.arena.BlocksInUse() }

// HorizonIdle is the ReclaimStats().Horizon reading when no transaction
// is live anywhere: everything retired is immediately reclaimable.
const HorizonIdle = core.HorizonIdle

// ReclaimStats returns a momentary reading of epoch-based reclamation:
// the horizon, its lag behind the commit clock, and the cumulative
// retired/reclaimed word counts (LimboWords is their difference). A
// HorizonLag that keeps growing while LimboWords is non-zero is a horizon
// stall — one parked long-running transaction gating all reclamation.
func (r *Runtime) ReclaimStats() ReclaimStats { return r.eng.ReclaimStats() }

// Reclaim sweeps the horizon once and drains every idle pooled thread's
// limbo (plus the shared overflow) against it, returning the words
// recycled. Commit paths reclaim incrementally on their own; this is the
// quiesce/maintenance entry point — call it after a churn phase or from a
// housekeeping loop. Must not be called from inside a transaction.
func (r *Runtime) Reclaim() uint64 { return r.eng.ReclaimNow() }
