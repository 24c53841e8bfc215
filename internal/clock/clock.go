// Package clock owns commit time for the STM engine. It defines the
// TimeBase interface — the versioning time base behind conflict
// detection — and two implementations:
//
//   - GlobalCounter: one global atomic counter, TL2/TinySTM style. Every
//     update commit performs one shared read-modify-write, which caps
//     commit throughput on many-core machines but keeps the protocol
//     trivially serializable on a single timeline.
//
//   - PartitionLocal: one commit counter per partition plus a cheap
//     global epoch. An update transaction that stays inside a single
//     partition (the common case after automatic partitioning) ticks only
//     that partition's counter, so disjoint partitions never contend on
//     commit time. Cross-partition update commits tick every written
//     partition's counter and bump the shared epoch; readers spanning
//     partitions re-anchor their per-partition snapshots (validating
//     their read set) whenever any counter they depend on has moved, so
//     all transactions remain serializable. The epoch gives those readers
//     an O(1) early-out signal that a cross-partition writer committed.
//
// The engine (internal/core) holds exactly one TimeBase and routes every
// timestamp operation — begin snapshots, snapshot extension, write-version
// assignment, stress-test clock jumps — through it. "Who owns time" is
// thereby a per-engine policy that the runtime tuner can switch under
// quiescence instead of a hard-coded global.
//
// # Snapshot pinning
//
// Snapshot read-only transactions (Run's Snapshot option) pin the instant
// they read at and reconstruct overwritten values from the multi-version
// store instead of extending. Both time bases support pinning through the
// same two properties, which they must preserve:
//
//   - Coverage: a Begin/Now sample is at or above every version already
//     published in the sampled timeline, so a fresh pin never needs
//     reconstruction for values that predate it.
//   - Monotonicity: counters never move backwards (Commit, Advance,
//     Resize, and mode migration via NewAt all only increase readings),
//     so a pinned snapshot S stays meaningful for the whole transaction:
//     any later commit's version is strictly above S, which is exactly
//     the "orec newer than the snapshot" signal that routes a read to the
//     store.
//
// Under GlobalCounter the pin is the single Begin() sample; under
// PartitionLocal each touched partition is pinned by its own Now(part)
// sample, with the engine's footprint alignment ensuring all pins
// correspond to one common instant.
package clock

import (
	"fmt"
	"sync/atomic"
)

// InitialStamp is the value every commit counter starts at. It must be at
// least 1: a freshly built ownership-record table has every version at 0,
// and the protocol's readability rule is "version ≤ snapshot", so keeping
// all counters (and hence all snapshots) at or above 1 guarantees a fresh
// orec is always readable. This invariant used to live as a comment next
// to the engine's clock initialisation; it is now owned and asserted here
// (see checkFloor), the single place counters are created.
const InitialStamp = 1

// Mode names a TimeBase implementation.
type Mode uint8

const (
	// ModeGlobal is the single shared commit counter (the default; exact
	// TL2/TinySTM behaviour).
	ModeGlobal Mode = iota
	// ModePartitionLocal gives each partition its own commit counter plus
	// a global cross-partition epoch.
	ModePartitionLocal
)

func (m Mode) String() string {
	switch m {
	case ModeGlobal:
		return "global"
	case ModePartitionLocal:
		return "partition-local"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Stats is a momentary reading of a time base, for experiments and the
// tuner. All fields are derived from the counters themselves, so taking a
// snapshot costs no extra bookkeeping on the commit path.
type Stats struct {
	Mode Mode
	// Parts holds each partition counter's current value (one entry, the
	// global counter, in ModeGlobal).
	Parts []uint64
	// Epoch is the cross-partition epoch (ModePartitionLocal) or the
	// global counter reading (ModeGlobal).
	Epoch uint64
	// SharedRMWs counts commit-path read-modify-writes on shared (not
	// partition-local) words: every commit tick in ModeGlobal, only
	// cross-partition epoch bumps in ModePartitionLocal. This is the
	// contention figure the clockscale experiment reports.
	SharedRMWs uint64
	// LocalTicks counts partition-local commit ticks (ModePartitionLocal
	// only; 0 in ModeGlobal).
	LocalTicks uint64
	// CrossCommits counts cross-partition update commits
	// (ModePartitionLocal only).
	CrossCommits uint64
}

// TimeBase is the commit clock abstraction. Resize and the engine's mode
// migration run only under quiescence (no transaction active); every other
// method is safe for concurrent use by transaction and monitor threads.
type TimeBase interface {
	// Mode identifies the implementation.
	Mode() Mode
	// Begin returns the stamp a transaction records when it starts: the
	// global snapshot in ModeGlobal, the current epoch in
	// ModePartitionLocal (per-partition snapshots are then sampled lazily
	// at first touch via Now).
	Begin() uint64
	// Now returns partition part's current commit-counter reading. In
	// ModeGlobal the argument is ignored and the global counter returned.
	Now(part uint32) uint64
	// Commit assigns write versions for one update commit that locked the
	// given partitions (deduplicated), writing version i for partition
	// parts[i] into wv[i] (len(wv) == len(parts) ≥ 1). ModeGlobal ticks
	// the global counter once and hands every partition the same version;
	// ModePartitionLocal bumps the epoch first when the commit spans
	// several partitions and then ticks each partition's own counter (see
	// PartitionLocal.Commit for why the bump must come first). The caller
	// must invoke Commit while holding all write locks and before
	// releasing any of them, so clock state is visible before the new
	// versions are.
	Commit(parts []uint32, wv []uint64)
	// Epoch returns the cross-partition epoch (ModePartitionLocal) or the
	// global counter (ModeGlobal). It is monotone and moves whenever a
	// commit that spans partitions completes, giving multi-partition
	// readers a cheap staleness signal.
	Epoch() uint64
	// Advance adds delta to every counter (and the epoch), preserving
	// monotonicity; stress tests use it to exercise large timestamps.
	Advance(delta uint64)
	// Ceiling returns the maximum reading across all counters. Any version
	// ever written into an orec is ≤ Ceiling, which makes it the floor a
	// successor time base must start from when the engine migrates modes.
	Ceiling() uint64
	// Resize re-bases the time base for nparts partitions, starting every
	// counter — carried-over and new alike — at the current Ceiling, so no
	// partition's timeline ever moves backwards across a plan install.
	// Called only under quiescence, at plan install, when every orec
	// table is rebuilt (versions reset to 0).
	Resize(nparts int)
	// Stats returns a momentary reading (see Stats).
	Stats() Stats
}

// New returns a time base of the given mode covering nparts partitions,
// with all counters starting at InitialStamp.
func New(mode Mode, nparts int) TimeBase {
	return NewAt(mode, nparts, InitialStamp)
}

// NewAt is New with an explicit starting value for every counter. The
// engine uses it when switching modes on a live heap: floor must be at
// least the predecessor's Ceiling so that every version already stored in
// an orec stays at or below every future snapshot. floor below
// InitialStamp would let version-0 (fresh) orecs become unreadable and is
// rejected.
func NewAt(mode Mode, nparts int, floor uint64) TimeBase {
	checkFloor(floor)
	if nparts < 1 {
		nparts = 1
	}
	switch mode {
	case ModePartitionLocal:
		return newPartitionLocal(nparts, floor)
	default:
		g := &GlobalCounter{}
		g.c.Store(floor)
		return g
	}
}

// checkFloor asserts the start-at-InitialStamp rule in the one place
// counters come into existence.
func checkFloor(floor uint64) {
	if floor < InitialStamp {
		panic(fmt.Sprintf("clock: counter floor %d below InitialStamp %d (fresh orecs would be unreadable)",
			floor, InitialStamp))
	}
}

// GlobalCounter is the classic single shared commit counter.
type GlobalCounter struct {
	c atomic.Uint64
}

// Mode returns ModeGlobal.
func (g *GlobalCounter) Mode() Mode { return ModeGlobal }

// Begin returns the global snapshot.
func (g *GlobalCounter) Begin() uint64 { return g.c.Load() }

// Now returns the global counter (part is ignored).
func (g *GlobalCounter) Now(part uint32) uint64 { return g.c.Load() }

// Commit ticks the global counter once; every written partition shares the
// version.
func (g *GlobalCounter) Commit(parts []uint32, wv []uint64) {
	v := g.c.Add(1)
	for i := range wv {
		wv[i] = v
	}
}

// Epoch returns the global counter.
func (g *GlobalCounter) Epoch() uint64 { return g.c.Load() }

// Advance adds delta to the counter.
func (g *GlobalCounter) Advance(delta uint64) { g.c.Add(delta) }

// Ceiling returns the counter.
func (g *GlobalCounter) Ceiling() uint64 { return g.c.Load() }

// Resize is a no-op: one counter serves any number of partitions.
func (g *GlobalCounter) Resize(nparts int) {}

// Stats reports the counter; every commit tick is a shared RMW.
func (g *GlobalCounter) Stats() Stats {
	v := g.c.Load()
	return Stats{
		Mode:       ModeGlobal,
		Parts:      []uint64{v},
		Epoch:      v,
		SharedRMWs: v - InitialStamp,
	}
}

// partCounter is one partition's commit counter, padded to a cache line so
// adjacent partitions' commit ticks do not false-share.
type partCounter struct {
	c atomic.Uint64
	_ [7]uint64
}

// PartitionLocal keeps one commit counter per partition plus the global
// cross-partition epoch. See the package comment for the protocol role of
// each.
type PartitionLocal struct {
	epoch atomic.Uint64
	// parts is swapped wholesale by Resize (under quiescence); monitor
	// threads may read concurrently, hence the atomic pointer.
	parts atomic.Pointer[[]partCounter]
}

func newPartitionLocal(nparts int, floor uint64) *PartitionLocal {
	pl := &PartitionLocal{}
	cs := make([]partCounter, nparts)
	for i := range cs {
		cs[i].c.Store(floor)
	}
	pl.parts.Store(&cs)
	return pl
}

// Mode returns ModePartitionLocal.
func (pl *PartitionLocal) Mode() Mode { return ModePartitionLocal }

// Begin returns the current epoch; per-partition snapshots are sampled at
// first touch with Now.
func (pl *PartitionLocal) Begin() uint64 { return pl.epoch.Load() }

// Now returns partition part's counter. An out-of-range partition is a
// protocol violation (the engine resizes the time base and the topology
// together, under quiescence) and panics: an invented snapshot here would
// be the UNSAFE direction — a value above the partition's real counter
// lets a reader accept a later writer's versions without the alignment
// checks ever seeing that writer.
func (pl *PartitionLocal) Now(part uint32) uint64 {
	cs := *pl.parts.Load()
	if int(part) >= len(cs) {
		panic(fmt.Sprintf("clock: partition %d out of range (%d counters)", part, len(cs)))
	}
	return cs[part].c.Load()
}

// Commit ticks each written partition's counter; a commit spanning more
// than one partition first bumps the epoch. The bump MUST precede every
// counter tick: a reader that samples a partition counter at or after one
// of this commit's ticks is then guaranteed (sequentially consistent
// atomics) to observe the bump on any later epoch load — the ordering the
// engine's footprint-alignment check relies on to detect a cross-partition
// writer whose versions its fresh snapshot already covers.
func (pl *PartitionLocal) Commit(parts []uint32, wv []uint64) {
	if len(parts) > 1 {
		pl.epoch.Add(1)
	}
	cs := *pl.parts.Load()
	for i, p := range parts {
		wv[i] = cs[p].c.Add(1)
	}
}

// Epoch returns the cross-partition epoch.
func (pl *PartitionLocal) Epoch() uint64 { return pl.epoch.Load() }

// Advance adds delta to every partition counter and the epoch.
func (pl *PartitionLocal) Advance(delta uint64) {
	cs := *pl.parts.Load()
	for i := range cs {
		cs[i].c.Add(delta)
	}
	pl.epoch.Add(delta)
}

// Ceiling returns the maximum partition counter.
func (pl *PartitionLocal) Ceiling() uint64 {
	var max uint64
	cs := *pl.parts.Load()
	for i := range cs {
		if v := cs[i].c.Load(); v > max {
			max = v
		}
	}
	return max
}

// Resize replaces the counter set with nparts counters, all starting at
// the current Ceiling: every partition's timeline jumps forward to the
// engine-wide maximum, never backwards. (The caller rebuilds all orec
// tables in the same quiescent window, so re-basing lagging counters is
// safe — there is no version anywhere above the ceiling.)
func (pl *PartitionLocal) Resize(nparts int) {
	if nparts < 1 {
		nparts = 1
	}
	floor := pl.Ceiling()
	checkFloor(floor)
	cs := make([]partCounter, nparts)
	for i := range cs {
		cs[i].c.Store(floor)
	}
	pl.parts.Store(&cs)
}

// Stats derives the contention figures from the counters: each partition
// counter started at InitialStamp (or a migration floor — deltas are then
// upper bounds), the epoch counts cross-partition commits, and only those
// epoch bumps touched shared memory.
func (pl *PartitionLocal) Stats() Stats {
	cs := *pl.parts.Load()
	s := Stats{
		Mode:  ModePartitionLocal,
		Parts: make([]uint64, len(cs)),
		Epoch: pl.epoch.Load(),
	}
	for i := range cs {
		v := cs[i].c.Load()
		s.Parts[i] = v
		s.LocalTicks += v - InitialStamp
	}
	s.CrossCommits = s.Epoch
	s.SharedRMWs = s.Epoch
	return s
}
