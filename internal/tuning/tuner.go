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
}

func (d Decision) String() string {
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
	for _, p := range t.eng.Partitions() {
		id := p.ID()
		cur := t.eng.StatsSnapshot(id)
		prev, seen := t.prev[id]
		t.prev[id] = cur
		if !seen {
			continue // need one epoch of history
		}
		delta := cur.Sub(prev)
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
		if t.cfg.HillClimb {
			if d, ok := t.climbStep(p, &delta, st); ok {
				applied = append(applied, d)
			}
		}
	}
	t.trace = append(t.trace, applied...)
	return applied
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
