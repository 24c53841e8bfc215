// Package tuning implements the per-partition runtime tuner: the component
// that, in the paper, observes each partition's workload and adapts the
// STM's concurrency control for it ("tuning decisions are driven by
// runtime heuristics").
//
// Two heuristics are implemented, matching the knobs the paper discusses:
//
//  1. Read visibility: partitions with a high update ratio and a high
//     abort rate switch to visible reads (readers become visible to
//     writers, avoiding doomed executions); read-dominated partitions
//     switch back to cheap invisible reads. Both directions require the
//     condition to hold for Hysteresis consecutive epochs so the tuner
//     does not thrash on noise.
//
//  2. Conflict-detection granularity: a hill climber probes the
//     lock-array size (LockBits) one step at a time, keeps moves that
//     improve per-epoch commit throughput by more than ImproveFrac, and
//     reverts moves that do not.
//
//  3. Contention management (optional, AdaptCM): a partition whose
//     lock-conflict aborts dominate switches its CM policy to the
//     older-wins arbiter (CMTimestamp), which breaks convoys without
//     admitting livelock; an arbitrated partition that has gone quiet
//     falls back to bounded spinning. Like the visibility switch, every
//     CM change is probed with a throughput regret check and reverted if
//     it costs commits. This heuristic extends the paper's "different
//     transactional memory designs per partition" argument to the
//     arbitration axis.
//
//  4. Commit time base (optional, AdaptTimeBase): a partitioned workload
//     dominated by update commits moves the engine from the global commit
//     counter onto partition-local counters (internal/clock), removing
//     the shared commit-clock RMW from single-partition commits; a high
//     cross-partition commit share moves it back. Guarded by the same
//     regret check as the other probes. This is the "maintain the time
//     base per partition" payoff of the paper's partitioning argument,
//     actuated at the engine level rather than per partition.
//
//  5. Snapshot history (optional, AdaptSnapshot): a partition showing
//     unserved snapshot demand — snapshot-mode readers hitting stale
//     orecs the store cannot reconstruct (SnapMisses) — or a
//     read-dominated commit mix under update traffic attaches a
//     multi-version snapshot store (PartConfig.HistCap,
//     internal/mvstore), so snapshot readers stop aborting or extending
//     under the writers. Demand matters more than the commit mix:
//     starving snapshot readers barely commit, so their share of commits
//     stays invisible while their misses do not. With a store attached,
//     growth keys on the store's own lookup statistics
//     (mvstore.Stats.TruncMisses, the misses caused by an evicted chain
//     link): while retention misses persist, capacity doubles (up to the
//     engine clamp) — misses no capacity can cure (addresses with no
//     recorded history, snapshots outside the span) no longer trigger
//     growth. When snapshot demand disappears on an update-active
//     partition the store is dropped, removing the commit-path append
//     cost. Every direction requires its condition to hold for
//     Hysteresis consecutive epochs.
//
//  6. Spin budget (optional, AdaptSpin): the engine's waiting discipline
//     counts how often a partition's wait loops escalate past its
//     SpinBudget into scheduler yields and timed parks
//     (PartStats.Yields/Parks, subsets of WaitCycles). A partition whose
//     waits routinely escalate halves its budget — the spin phase buys
//     no resolutions, and on oversubscribed hosts it steals cycles from
//     the very lock owners being waited on; one aborting heavily on lock
//     conflicts while its waits never escalate doubles it, trading
//     patience for aborts.
//
// The tuner works on per-epoch deltas of the engine's monotonic
// per-partition counters; actuation goes through Engine.Reconfigure,
// which swaps the partition's configuration and orec table under
// quiescence.
package tuning

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Config tunes the tuner.
type Config struct {
	// Interval is the epoch length used by Start (ignored by manual Tick).
	Interval time.Duration

	// ToVisibleUpdateRatio and ToVisibleAbortRate: a partition whose
	// update ratio AND abort rate exceed these switches to visible reads.
	ToVisibleUpdateRatio float64
	ToVisibleAbortRate   float64
	// ToInvisibleUpdateRatio and ToInvisibleAbortRate: a visible-reads
	// partition whose update ratio OR abort rate falls below these
	// switches back to invisible reads.
	ToInvisibleUpdateRatio float64
	ToInvisibleAbortRate   float64
	// Hysteresis is the number of consecutive epochs a switch condition
	// must hold before it is applied.
	Hysteresis int

	// HillClimb enables lock-granularity adaptation.
	HillClimb bool
	// MinLockBits / MaxLockBits bound the probe range.
	MinLockBits uint
	MaxLockBits uint
	// ImproveFrac is the minimum relative throughput improvement for a
	// probe to be accepted (e.g. 0.05 = 5%).
	ImproveFrac float64
	// ProbeEvery is the number of stable epochs between probes.
	ProbeEvery int

	// MinCommits is the minimum per-epoch commit count for a partition to
	// be considered active; idle partitions are left alone.
	MinCommits uint64

	// AdaptCM enables heuristic (3): per-partition contention-manager
	// adaptation.
	AdaptCM bool
	// ToArbiterConflictRate: a partition whose lock-conflict aborts per
	// attempt exceed this switches to CMTimestamp arbitration.
	ToArbiterConflictRate float64
	// ToSpinConflictRate: an arbitrated partition whose conflict rate
	// falls below this switches back to CMSpin.
	ToSpinConflictRate float64

	// AdaptTimeBase enables heuristic (4): engine-level commit-clock
	// adaptation. A partitioned workload dominated by update commits moves
	// from the global commit counter to partition-local counters (update
	// commits confined to one partition then perform no shared-counter
	// RMW); it moves back when the cross-partition commit share makes the
	// per-partition bookkeeping a net loss. Like the other probing
	// heuristics, every switch is guarded by a throughput regret check.
	AdaptTimeBase bool
	// ToPartitionLocalUpdates: minimum update commits per epoch (across
	// all partitions) for the partition-local switch to be considered.
	ToPartitionLocalUpdates uint64
	// ToGlobalCrossShare: fraction of update commits that span partitions
	// above which a partition-local engine reverts to the global counter.
	ToGlobalCrossShare float64

	// AdaptSpin enables heuristic (6): per-partition spin-budget
	// adaptation from the waiting discipline's scheduler-cooperation
	// counters (PartStats.Yields/Parks). A partition whose waits routinely
	// escalate past the spin budget into yields and parks is burning its
	// budget without resolutions — on oversubscribed hosts those cycles
	// are stolen from the very lock owners being waited on — so the budget
	// halves. Conversely a partition aborting heavily on lock conflicts
	// while its waits never escalate is giving up on holds a little more
	// patience would survive: the budget doubles.
	AdaptSpin bool
	// ToShrinkYieldShare: fraction of wait cycles that escalated into
	// yields/parks at or above which the spin budget halves.
	ToShrinkYieldShare float64
	// ToGrowLockAbortRate: lock-conflict aborts per attempt at or above
	// which — with waits essentially never escalating — the budget
	// doubles.
	ToGrowLockAbortRate float64
	// MinSpinBudget / MaxSpinBudget bound the adaptation.
	MinSpinBudget int
	MaxSpinBudget int

	// AdaptHorizon enables heuristic (7): engine-level horizon-stall
	// detection for epoch-based reclamation. One long-parked transaction
	// pins the global horizon at its begin stamp; every word freed since
	// then sits in limbo, unreclaimed, engine-wide. The step watches for the
	// same minimum stamp persisting across Hysteresis epochs with the lag
	// (clock ceiling minus horizon) at or above ToHorizonStallLag while
	// limbo is non-empty, and records a decision naming the stall; with
	// HorizonKill set it also kills the pinning transaction
	// (core.Engine.KillHorizonPinner), which costs that reader one attempt
	// and releases the horizon. The decision's reason reports the snapshot
	// stores' HorizonShortfall so a trace shows whether retention growth
	// could instead have served the stalled reader (shortfall 0) or the
	// reader had already outlived every retained version.
	AdaptHorizon bool
	// ToHorizonStallLag is the minimum horizon lag, in commit ticks, for
	// the stall streak to advance.
	ToHorizonStallLag uint64
	// HorizonKill makes a detected stall kill the pinning transaction
	// rather than only recording the decision.
	HorizonKill bool

	// AdaptSnapshot enables heuristic (5): per-partition snapshot-history
	// adaptation for abort-free read-only transactions.
	AdaptSnapshot bool
	// ToSnapshotDemand: unserved snapshot reads per epoch (SnapMisses) at
	// or above which a store is attached — or, with one attached, its
	// capacity doubled.
	ToSnapshotDemand uint64
	// ToSnapshotROShare: alternatively, a partition whose read-only
	// commit share meets this (with update traffic present) gets a store
	// attached pre-emptively, before any snapshot reader starves.
	ToSnapshotROShare float64
	// SnapshotHistCap is the initial store capacity (records) the
	// heuristic installs.
	SnapshotHistCap uint
}

// DefaultConfig returns the tuner defaults used by the experiments.
func DefaultConfig() Config {
	return Config{
		Interval:               50 * time.Millisecond,
		ToVisibleUpdateRatio:   0.25,
		ToVisibleAbortRate:     0.10,
		ToInvisibleUpdateRatio: 0.08,
		ToInvisibleAbortRate:   0.02,
		Hysteresis:             2,
		HillClimb:              true,
		MinLockBits:            4,
		MaxLockBits:            20,
		ImproveFrac:            0.05,
		ProbeEvery:             3,
		MinCommits:             200,
		AdaptCM:                false,
		ToArbiterConflictRate:  0.20,
		ToSpinConflictRate:     0.02,

		AdaptTimeBase:           false,
		ToPartitionLocalUpdates: 1000,
		ToGlobalCrossShare:      0.50,

		AdaptHorizon:      false,
		ToHorizonStallLag: 1024,
		HorizonKill:       false,

		AdaptSnapshot:     false,
		ToSnapshotDemand:  64,
		ToSnapshotROShare: 0.60,
		SnapshotHistCap:   1024,

		AdaptSpin:           false,
		ToShrinkYieldShare:  0.50,
		ToGrowLockAbortRate: 0.10,
		MinSpinBudget:       16,
		MaxSpinBudget:       4096,
	}
}

// Decision records one actuation for the tuning trace (used by the fig4 /
// fig6 experiments and by the adaptive example).
type Decision struct {
	Epoch  int
	Part   core.PartID
	Name   string
	Old    core.PartConfig
	New    core.PartConfig
	Reason string
	// OldTB/NewTB differ when the decision switched the engine's commit
	// time base (an engine-level actuation) rather than one partition's
	// configuration; Part/Old/New are then unused.
	OldTB core.TimeBaseMode
	NewTB core.TimeBaseMode
}

func (d Decision) String() string {
	if d.OldTB != d.NewTB {
		return fmt.Sprintf("epoch %d: engine time base: %s -> %s (%s)",
			d.Epoch, d.OldTB, d.NewTB, d.Reason)
	}
	if d.Name == "engine" {
		// Engine-level decision with no config change to print (e.g. the
		// horizon-stall step): the reason is the whole story.
		return fmt.Sprintf("epoch %d: engine: %s", d.Epoch, d.Reason)
	}
	return fmt.Sprintf("epoch %d: partition %d (%s): %s -> %s (%s)",
		d.Epoch, d.Part, d.Name, d.Old, d.New, d.Reason)
}

// climbState is the hill climber's per-partition state machine.
type climbState int

const (
	climbStable climbState = iota
	climbProbing
)

type partTuneState struct {
	toVisStreak   int
	toInvisStreak int
	skipEpochs    int // cool-down after any reconfiguration

	// Visibility switches are guarded by a regret check: the tuner
	// remembers the pre-switch throughput and the configuration it came
	// from; if the first post-switch epoch is clearly worse, it reverts
	// and backs off from re-probing for visCooldown epochs. The decision
	// inputs (update ratio, abort rate) are necessary but not sufficient
	// conditions — whether visible reads pay depends on transaction
	// shape, which only the throughput reveals.
	visProbing  bool
	visBaseline float64
	visRevertTo core.PartConfig
	visCooldown int

	// CM adaptation mirrors the visibility machinery: streak, probe with
	// regret check, cool-down on revert.
	cmStreak   int
	cmProbing  bool
	cmBaseline float64
	cmRevertTo core.PartConfig
	cmCooldown int

	// Snapshot-history adaptation needs only streaks: attaching, growing
	// or dropping the store does not change the read/write protocol, so
	// there is no regret probe — the cost it weighs (commit-path appends
	// vs. unserved snapshot reads) is captured directly by the decision
	// inputs. snapPrevTrunc remembers the store's cumulative retention-
	// miss reading (mvstore.Stats.TruncMisses) from the previous epoch so
	// the growth step works on deltas; a reading below it means the store
	// was replaced (Reconfigure installs a fresh buffer) and the epoch is
	// treated as starting from zero.
	snapOnStreak   int
	snapGrowStreak int
	snapOffStreak  int
	snapPrevTrunc  uint64
	snapPrevSteals uint64

	// Spin-budget adaptation (heuristic 6) needs only streaks: the budget
	// moves one doubling at a time and the decision inputs (yield share,
	// lock-abort rate) price the trade directly, so there is no regret
	// probe to unwind.
	spinShrinkStreak int
	spinGrowStreak   int

	climb         climbState
	stableEpochs  int
	baseline      float64 // commits per epoch before the probe
	probeDir      int     // +1 or -1 lock bits
	lastGoodDir   int
	probePrevBits uint
}

// Tuner drives per-partition adaptation.
type Tuner struct {
	eng *core.Engine
	cfg Config

	mu    sync.Mutex
	epoch int
	prev  map[core.PartID]core.PartStats
	state map[core.PartID]*partTuneState
	trace []Decision

	// Time-base adaptation state (engine-level, heuristic 4).
	tbStreak    int
	tbProbing   bool
	tbBaseline  float64
	tbCooldown  int
	prevCross   uint64
	prevCrossOK bool // prevCross was read while partition-local

	// Horizon-stall state (engine-level, heuristic 7): the streak only
	// advances while the same minimum stamp keeps pinning the horizon.
	hzStreak    int
	hzLastStamp uint64

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// New creates a tuner over eng.
func New(eng *core.Engine, cfg Config) *Tuner {
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = 1
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 3
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	if cfg.ToShrinkYieldShare <= 0 {
		cfg.ToShrinkYieldShare = 0.50
	}
	if cfg.ToGrowLockAbortRate <= 0 {
		cfg.ToGrowLockAbortRate = 0.10
	}
	if cfg.MinSpinBudget <= 0 {
		cfg.MinSpinBudget = 16
	}
	if cfg.MaxSpinBudget <= 0 {
		cfg.MaxSpinBudget = 4096
	}
	if cfg.ToHorizonStallLag == 0 {
		cfg.ToHorizonStallLag = 1024
	}
	return &Tuner{
		eng:    eng,
		cfg:    cfg,
		prev:   make(map[core.PartID]core.PartStats),
		state:  make(map[core.PartID]*partTuneState),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
}

// Start runs Tick on the configured interval until Stop is called.
func (t *Tuner) Start() {
	go func() {
		defer close(t.doneCh)
		ticker := time.NewTicker(t.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-t.stopCh:
				return
			case <-ticker.C:
				t.Tick()
			}
		}
	}()
}

// Stop terminates the Start loop and waits for it.
func (t *Tuner) Stop() {
	t.stopOnce.Do(func() { close(t.stopCh) })
	<-t.doneCh
}

// Epoch returns the number of Ticks executed.
func (t *Tuner) Epoch() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Trace returns a copy of all decisions taken so far.
func (t *Tuner) Trace() []Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Decision, len(t.trace))
	copy(out, t.trace)
	return out
}

// Tick runs one tuning epoch over every partition and returns the
// decisions applied in this epoch.
func (t *Tuner) Tick() []Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch++
	var applied []Decision
	var total core.PartStats // aggregate delta across partitions
	nparts := 0
	for _, p := range t.eng.Partitions() {
		id := p.ID()
		cur := t.eng.StatsSnapshot(id)
		prev, seen := t.prev[id]
		t.prev[id] = cur
		if !seen {
			continue // need one epoch of history
		}
		nparts++
		delta := cur.Sub(prev)
		total.Commits += delta.Commits
		total.UpdateCommits += delta.UpdateCommits
		st := t.state[id]
		if st == nil {
			st = &partTuneState{}
			t.state[id] = st
		}
		if st.skipEpochs > 0 {
			st.skipEpochs--
			continue
		}
		if delta.Commits < t.cfg.MinCommits {
			st.toVisStreak, st.toInvisStreak = 0, 0
			continue
		}
		if d, ok := t.visibilityStep(p, &delta, st); ok {
			applied = append(applied, d)
			continue
		}
		if t.cfg.AdaptCM {
			if d, ok := t.cmStep(p, &delta, st); ok {
				applied = append(applied, d)
				continue
			}
		}
		if t.cfg.AdaptSnapshot {
			if d, ok := t.snapStep(p, &delta, st); ok {
				applied = append(applied, d)
				continue
			}
		}
		if t.cfg.AdaptSpin {
			if d, ok := t.spinStep(p, &delta, st); ok {
				applied = append(applied, d)
				continue
			}
		}
		if t.cfg.HillClimb {
			if d, ok := t.climbStep(p, &delta, st); ok {
				applied = append(applied, d)
			}
		}
	}
	if t.cfg.AdaptTimeBase {
		if d, ok := t.timeBaseStep(&total, nparts); ok {
			applied = append(applied, d)
		}
	}
	if t.cfg.AdaptHorizon {
		if d, ok := t.horizonStep(); ok {
			applied = append(applied, d)
		}
	}
	t.trace = append(t.trace, applied...)
	return applied
}

// timeBaseStep applies heuristic (4): move a partitioned, update-heavy
// workload onto partition-local commit counters; move back when the
// cross-partition commit share (derived from the epoch counter) erases
// the benefit. Engine-level: there is one time base, not one per
// partition, so this runs once per epoch on the aggregate delta.
func (t *Tuner) timeBaseStep(total *core.PartStats, nparts int) (Decision, bool) {
	mode := t.eng.TimeBaseMode()
	cross := t.eng.ClockStats().CrossCommits
	prevCross, prevOK := t.prevCross, t.prevCrossOK
	t.prevCross = cross
	t.prevCrossOK = mode == core.TimeBasePartitionLocal
	if t.tbCooldown > 0 {
		t.tbCooldown--
		t.tbStreak = 0
		return Decision{}, false
	}
	if total.Commits < t.cfg.MinCommits {
		t.tbStreak = 0
		// An idle epoch right after a switch makes the regret comparison
		// meaningless (the baseline came from a different workload phase):
		// disarm the probe instead of judging the new mode against it
		// later. The cross-share monitor keeps guarding the switch.
		t.tbProbing = false
		return Decision{}, false
	}
	switch mode {
	case core.TimeBaseGlobal:
		if nparts > 1 && total.UpdateCommits >= t.cfg.ToPartitionLocalUpdates {
			t.tbStreak++
		} else {
			t.tbStreak = 0
		}
		if t.tbStreak >= t.cfg.Hysteresis {
			t.tbStreak = 0
			t.tbProbing = true
			t.tbBaseline = float64(total.Commits)
			t.eng.SetTimeBaseMode(core.TimeBasePartitionLocal)
			return Decision{
				Epoch: t.epoch, Name: "engine",
				OldTB: core.TimeBaseGlobal, NewTB: core.TimeBasePartitionLocal,
				Reason: fmt.Sprintf("%d update commits/epoch across %d partitions: partition-local commit clock",
					total.UpdateCommits, nparts),
			}, true
		}
	case core.TimeBasePartitionLocal:
		if t.tbProbing {
			t.tbProbing = false
			if float64(total.Commits) < t.tbBaseline*0.9 {
				t.tbCooldown = 10
				t.eng.SetTimeBaseMode(core.TimeBaseGlobal)
				return Decision{
					Epoch: t.epoch, Name: "engine",
					OldTB: core.TimeBasePartitionLocal, NewTB: core.TimeBaseGlobal,
					Reason: fmt.Sprintf("partition-local clock regressed throughput (%.0f vs %.0f commits/epoch): revert",
						float64(total.Commits), t.tbBaseline),
				}, true
			}
		}
		if prevOK && total.UpdateCommits > 0 {
			crossShare := float64(cross-prevCross) / float64(total.UpdateCommits)
			if crossShare >= t.cfg.ToGlobalCrossShare {
				t.tbStreak++
			} else {
				t.tbStreak = 0
			}
			if t.tbStreak >= t.cfg.Hysteresis {
				t.tbStreak = 0
				// Structural revert: the update-heavy condition that admits
				// partition-local still holds, and the cross-partition share
				// is invisible from global mode — park the heuristic for a
				// long cool-down so it does not oscillate.
				t.tbCooldown = 50
				t.eng.SetTimeBaseMode(core.TimeBaseGlobal)
				return Decision{
					Epoch: t.epoch, Name: "engine",
					OldTB: core.TimeBasePartitionLocal, NewTB: core.TimeBaseGlobal,
					Reason: fmt.Sprintf("cross-partition commit share %.2f: global commit clock", crossShare),
				}, true
			}
		}
	}
	return Decision{}, false
}

// horizonStep applies heuristic (7): detect a stalled reclamation horizon
// — the same long-lived reader pinning the global minimum begin stamp
// across consecutive epochs while retired words sit in limbo — and, with
// HorizonKill set, kill that transaction so reclamation can proceed.
// Engine-level, like the time-base step: there is one horizon. The reason
// string reports the worst snapshot-store HorizonShortfall across
// partitions: 0 means the stalled reader's snapshot was still servable
// (retention growth could have helped); positive means the reader had
// outlived every retained version and unpinning was the only cure.
func (t *Tuner) horizonStep() (Decision, bool) {
	rs := t.eng.ReclaimStats()
	stamp := rs.Horizon
	stalled := stamp != core.HorizonIdle &&
		rs.HorizonLag >= t.cfg.ToHorizonStallLag &&
		rs.LimboWords > 0 &&
		stamp == t.hzLastStamp
	t.hzLastStamp = stamp
	if !stalled {
		t.hzStreak = 0
		return Decision{}, false
	}
	t.hzStreak++
	if t.hzStreak < t.cfg.Hysteresis {
		return Decision{}, false
	}
	t.hzStreak = 0
	var shortfall uint64
	for _, p := range t.eng.Partitions() {
		if s := t.eng.SnapshotHistory(p.ID()).HorizonShortfall(stamp); s > shortfall {
			shortfall = s
		}
	}
	action := "flagged"
	if t.cfg.HorizonKill {
		if _, ok := t.eng.KillHorizonPinner(); ok {
			action = "killed pinning transaction"
		}
	}
	return Decision{
		Epoch: t.epoch, Name: "engine",
		Reason: fmt.Sprintf("horizon stall: stamp %d lagging ceiling by %d ticks, %d words in limbo, snapshot shortfall %d: %s",
			stamp, rs.HorizonLag, rs.LimboWords, shortfall, action),
	}, true
}

// visibilityStep applies heuristic (1); returns the decision if one fired.
func (t *Tuner) visibilityStep(p *core.Partition, d *core.PartStats, st *partTuneState) (Decision, bool) {
	cfg := p.Config()
	ur, ar := d.UpdateRatio(), d.AbortRate()

	// Regret check for an in-flight visible probe: keep it only if it did
	// not cost throughput.
	if st.visProbing {
		st.visProbing = false
		if float64(d.Commits) < st.visBaseline*0.9 {
			st.visCooldown = 10
			return t.apply(p, cfg, st.visRevertTo, st,
				fmt.Sprintf("visible reads regressed throughput (%.0f vs %.0f commits/epoch): revert",
					float64(d.Commits), st.visBaseline))
		}
		// Accepted; fall through so the switch-back rule still applies.
	}
	if st.visCooldown > 0 {
		st.visCooldown--
		st.toVisStreak = 0
	}

	switch cfg.Read {
	case core.InvisibleReads:
		if st.visCooldown == 0 && ur >= t.cfg.ToVisibleUpdateRatio && ar >= t.cfg.ToVisibleAbortRate {
			st.toVisStreak++
		} else {
			st.toVisStreak = 0
		}
		if st.toVisStreak >= t.cfg.Hysteresis {
			newCfg := cfg
			newCfg.Read = core.VisibleReads
			// The aborts we are remedying are update transactions dying on
			// validation; reader priority is what protects them once their
			// reads are visible.
			newCfg.ReaderCM = core.WriterYieldsToReaders
			st.visProbing = true
			st.visBaseline = float64(d.Commits)
			st.visRevertTo = cfg
			return t.apply(p, cfg, newCfg, st,
				fmt.Sprintf("update ratio %.2f, abort rate %.2f: switch to visible reads", ur, ar))
		}
	case core.VisibleReads:
		if ur <= t.cfg.ToInvisibleUpdateRatio || ar <= t.cfg.ToInvisibleAbortRate {
			st.toInvisStreak++
		} else {
			st.toInvisStreak = 0
		}
		if st.toInvisStreak >= t.cfg.Hysteresis {
			newCfg := cfg
			newCfg.Read = core.InvisibleReads
			return t.apply(p, cfg, newCfg, st,
				fmt.Sprintf("update ratio %.2f, abort rate %.2f: switch to invisible reads", ur, ar))
		}
	}
	return Decision{}, false
}

// cmStep applies heuristic (3): switch the partition's contention manager
// between bounded spinning and older-wins arbitration based on the
// lock-conflict abort rate, guarded by a throughput regret check.
func (t *Tuner) cmStep(p *core.Partition, d *core.PartStats, st *partTuneState) (Decision, bool) {
	cfg := p.Config()
	attempts := d.Commits + d.TotalAborts()
	if attempts == 0 {
		return Decision{}, false
	}
	conflictRate := float64(d.Aborts[core.AbortLockedOnRead]+d.Aborts[core.AbortLockedOnWrite]) /
		float64(attempts)

	// Regret check for an in-flight CM probe.
	if st.cmProbing {
		st.cmProbing = false
		if float64(d.Commits) < st.cmBaseline*0.9 {
			st.cmCooldown = 10
			return t.apply(p, cfg, st.cmRevertTo, st,
				fmt.Sprintf("CM change regressed throughput (%.0f vs %.0f commits/epoch): revert",
					float64(d.Commits), st.cmBaseline))
		}
	}
	if st.cmCooldown > 0 {
		st.cmCooldown--
		st.cmStreak = 0
		return Decision{}, false
	}

	switch cfg.CM {
	case core.CMTimestamp:
		if conflictRate <= t.cfg.ToSpinConflictRate {
			st.cmStreak++
		} else {
			st.cmStreak = 0
		}
		if st.cmStreak >= t.cfg.Hysteresis {
			newCfg := cfg
			newCfg.CM = core.CMSpin
			st.cmStreak = 0
			st.cmProbing = true
			st.cmBaseline = float64(d.Commits)
			st.cmRevertTo = cfg
			return t.apply(p, cfg, newCfg, st,
				fmt.Sprintf("conflict rate %.2f: arbitration no longer needed, back to spin", conflictRate))
		}
	default:
		if conflictRate >= t.cfg.ToArbiterConflictRate {
			st.cmStreak++
		} else {
			st.cmStreak = 0
		}
		if st.cmStreak >= t.cfg.Hysteresis {
			newCfg := cfg
			newCfg.CM = core.CMTimestamp
			st.cmStreak = 0
			st.cmProbing = true
			st.cmBaseline = float64(d.Commits)
			st.cmRevertTo = cfg
			return t.apply(p, cfg, newCfg, st,
				fmt.Sprintf("conflict rate %.2f: switch to older-wins arbitration", conflictRate))
		}
	}
	return Decision{}, false
}

// snapStep applies heuristic (5). Attachment keys primarily on unserved
// snapshot demand (SnapMisses): snapshot readers starving under writers
// barely commit, so a commit-share trigger alone would never see them —
// their misses are the honest signal. A read-dominated commit mix under
// update traffic attaches pre-emptively. With a store attached,
// persistent misses double its capacity (retention growth); a partition
// whose snapshot demand has dried up while updates keep paying the
// append drops the store.
func (t *Tuner) snapStep(p *core.Partition, d *core.PartStats, st *partTuneState) (Decision, bool) {
	cfg := p.Config()
	demand := d.SnapHits + d.SnapMisses
	if cfg.HistCap == 0 {
		roHeavy := false
		if d.Commits > 0 {
			roShare := float64(d.ROCommits) / float64(d.Commits)
			roHeavy = roShare >= t.cfg.ToSnapshotROShare && d.UpdateCommits > 0
		}
		if d.SnapMisses >= t.cfg.ToSnapshotDemand || roHeavy {
			st.snapOnStreak++
		} else {
			st.snapOnStreak = 0
		}
		if st.snapOnStreak >= t.cfg.Hysteresis {
			st.snapOnStreak = 0
			newCfg := cfg
			newCfg.HistCap = t.cfg.SnapshotHistCap
			return t.apply(p, cfg, newCfg, st,
				fmt.Sprintf("%d unserved snapshot reads/epoch: attach snapshot store (%d records)",
					d.SnapMisses, t.cfg.SnapshotHistCap))
		}
		return Decision{}, false
	}
	// Retention growth: with a store attached and retention sufficient,
	// steady-state retention misses are exactly zero (that is the
	// design's whole point), so ANY persistent one means records are
	// being evicted faster than readers consume them — and an undersized
	// ring throttles its own miss count (readers abort early and back
	// off), so a volume threshold like the attach condition would never
	// fire. The store's own lookup statistics say precisely which misses
	// capacity can cure: TruncMisses counts lookups that died on an
	// evicted chain link (retention shortfall), as opposed to lookups for
	// addresses with no recorded history or snapshots outside the
	// recorded span, which no amount of ring would serve. Key growth on
	// that delta — SnapMisses alone (the engine-side fallback count)
	// conflates the two and over-grows on cold stores. Double the ring
	// (Normalize clamps the ceiling; stop proposing once pinned there).
	// Hysteresis filters the transient misses right after attach, when
	// stale orecs still predate the store.
	hist := t.eng.SnapshotHistory(p.ID())
	prevTrunc, prevSteals := st.snapPrevTrunc, st.snapPrevSteals
	st.snapPrevTrunc, st.snapPrevSteals = hist.TruncMisses, hist.Steals
	if hist.TruncMisses < prevTrunc || hist.Steals < prevSteals {
		prevTrunc, prevSteals = 0, 0 // fresh buffer since last epoch (store was replaced)
	}
	truncDelta := hist.TruncMisses - prevTrunc
	stealsDelta := hist.Steals - prevSteals
	// Steals (index entries reclaimed because the appended address set
	// outgrew the index) are also capacity-curable, but only matter when
	// readers actually missed this epoch — write-only churn over a huge
	// address universe steals constantly and growing for it would buy
	// nothing.
	if truncDelta > 0 || (stealsDelta > 0 && d.SnapMisses > 0) {
		st.snapGrowStreak++
	} else {
		st.snapGrowStreak = 0
	}
	if st.snapGrowStreak >= t.cfg.Hysteresis {
		st.snapGrowStreak = 0
		newCfg := cfg
		newCfg.HistCap = cfg.HistCap * 2
		if grown := newCfg.Normalize(); grown.HistCap > cfg.HistCap {
			depth := float64(0)
			if hist.Hits > 0 {
				depth = float64(hist.ChainSteps) / float64(hist.Hits)
			}
			return t.apply(p, cfg, newCfg, st,
				fmt.Sprintf("%d retention misses/epoch despite store (chain depth %.1f/hit): grow retention %d -> %d records",
					truncDelta, depth, cfg.HistCap, grown.HistCap))
		}
	}
	if demand == 0 && d.UpdateCommits > 0 {
		st.snapOffStreak++
	} else {
		st.snapOffStreak = 0
	}
	if st.snapOffStreak >= t.cfg.Hysteresis {
		st.snapOffStreak = 0
		newCfg := cfg
		newCfg.HistCap = 0
		return t.apply(p, cfg, newCfg, st, "no snapshot demand under update traffic: drop snapshot store")
	}
	return Decision{}, false
}

// spinStep applies heuristic (6): adapt the partition's SpinBudget to
// the observed waiting discipline. The engine's wait loops escalate from
// on-CPU spinning (within the budget) to scheduler yields and parks
// (past it), counting each phase separately — so the ratio of escalated
// waits to total wait cycles says directly whether the budget is doing
// its job. Waits that mostly escalate mean the budget buys no
// resolutions and its cycles are better handed to the scheduler: halve
// it. Lock-conflict aborts dominating while waits essentially never
// escalate mean transactions are giving up on holds that a little more
// on-CPU patience would survive: double it. Both directions hold for
// Hysteresis consecutive epochs before acting and are clamped to
// [MinSpinBudget, MaxSpinBudget].
func (t *Tuner) spinStep(p *core.Partition, d *core.PartStats, st *partTuneState) (Decision, bool) {
	cfg := p.Config()
	esc := d.Yields + d.Parks
	var escShare float64
	if d.WaitCycles > 0 {
		escShare = float64(esc) / float64(d.WaitCycles)
	}
	if d.WaitCycles > 0 && escShare >= t.cfg.ToShrinkYieldShare && cfg.SpinBudget/2 >= t.cfg.MinSpinBudget {
		st.spinShrinkStreak++
	} else {
		st.spinShrinkStreak = 0
	}
	if st.spinShrinkStreak >= t.cfg.Hysteresis {
		st.spinShrinkStreak = 0
		newCfg := cfg
		newCfg.SpinBudget = cfg.SpinBudget / 2
		return t.apply(p, cfg, newCfg, st,
			fmt.Sprintf("%.0f%% of waits escalate to the scheduler (%d yields, %d parks): halve spin budget %d -> %d",
				escShare*100, d.Yields, d.Parks, cfg.SpinBudget, newCfg.SpinBudget))
	}

	attempts := d.Commits + d.TotalAborts()
	lockAborts := d.Aborts[core.AbortLockedOnRead] + d.Aborts[core.AbortLockedOnWrite]
	lockRate := float64(0)
	if attempts > 0 {
		lockRate = float64(lockAborts) / float64(attempts)
	}
	if lockRate >= t.cfg.ToGrowLockAbortRate && escShare < t.cfg.ToShrinkYieldShare/8 &&
		cfg.SpinBudget*2 <= t.cfg.MaxSpinBudget {
		st.spinGrowStreak++
	} else {
		st.spinGrowStreak = 0
	}
	if st.spinGrowStreak >= t.cfg.Hysteresis {
		st.spinGrowStreak = 0
		newCfg := cfg
		newCfg.SpinBudget = cfg.SpinBudget * 2
		return t.apply(p, cfg, newCfg, st,
			fmt.Sprintf("lock-abort rate %.2f with non-escalating waits: double spin budget %d -> %d",
				lockRate, cfg.SpinBudget, newCfg.SpinBudget))
	}
	return Decision{}, false
}

// climbStep applies heuristic (2): probe LockBits and keep improvements.
func (t *Tuner) climbStep(p *core.Partition, d *core.PartStats, st *partTuneState) (Decision, bool) {
	cfg := p.Config()
	throughput := float64(d.Commits)
	switch st.climb {
	case climbStable:
		st.stableEpochs++
		st.baseline = throughput
		if st.stableEpochs < t.cfg.ProbeEvery {
			return Decision{}, false
		}
		st.stableEpochs = 0
		dir := st.lastGoodDir
		if dir == 0 {
			// First probe: grow the table when lock conflicts dominate,
			// otherwise try shrinking (smaller tables are cache-friendlier).
			if d.Aborts[core.AbortLockedOnWrite]+d.Aborts[core.AbortLockedOnRead] > d.Commits/20 {
				dir = +1
			} else {
				dir = -1
			}
		}
		bits := int(cfg.LockBits) + dir
		if bits < int(t.cfg.MinLockBits) || bits > int(t.cfg.MaxLockBits) {
			dir = -dir
			bits = int(cfg.LockBits) + dir
			if bits < int(t.cfg.MinLockBits) || bits > int(t.cfg.MaxLockBits) {
				return Decision{}, false
			}
		}
		newCfg := cfg
		newCfg.LockBits = uint(bits)
		st.climb = climbProbing
		st.probeDir = dir
		st.probePrevBits = cfg.LockBits
		return t.apply(p, cfg, newCfg, st,
			fmt.Sprintf("probe lockBits %d -> %d", cfg.LockBits, bits))
	case climbProbing:
		st.climb = climbStable
		st.stableEpochs = 0
		if throughput >= st.baseline*(1+t.cfg.ImproveFrac) {
			st.lastGoodDir = st.probeDir // accept; keep climbing this way
			st.baseline = throughput
			return Decision{}, false
		}
		st.lastGoodDir = -st.probeDir // revert and try the other way later
		newCfg := cfg
		newCfg.LockBits = st.probePrevBits
		return t.apply(p, cfg, newCfg, st,
			fmt.Sprintf("revert lockBits %d -> %d (%.0f vs baseline %.0f commits/epoch)",
				cfg.LockBits, st.probePrevBits, throughput, st.baseline))
	}
	return Decision{}, false
}

func (t *Tuner) apply(p *core.Partition, old, new core.PartConfig, st *partTuneState, reason string) (Decision, bool) {
	if err := t.eng.Reconfigure(p.ID(), new); err != nil {
		return Decision{}, false
	}
	st.skipEpochs = 1 // let one epoch of fresh stats accumulate
	st.toVisStreak, st.toInvisStreak = 0, 0
	d := Decision{
		Epoch:  t.epoch,
		Part:   p.ID(),
		Name:   p.Name(),
		Old:    old,
		New:    new.Normalize(),
		Reason: reason,
	}
	return d, true
}
