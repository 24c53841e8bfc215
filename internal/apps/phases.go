package apps

import (
	"fmt"
	"sync/atomic"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// Phases is the dynamic-workload application (fig6): a counter array
// under an operation mix that flips between
//
//   - a read-heavy phase (mostly read-only range audits, few transfers),
//     where invisible reads are optimal, and
//   - an update-heavy phase (rebalance transactions that scan the whole
//     array and then move value between its extreme slots, plus
//     transfers), where long update transactions starve under invisible
//     reads and visible reads with reader priority are optimal.
//
// A static configuration is right in one phase and wrong in the other;
// the runtime tuner should follow the flips. The conserved array total
// doubles as the invariant check.
type Phases struct {
	rt       *stm.Runtime
	arr      *txds.CounterArray
	slots    int
	initial  uint64
	schedule *workload.Schedule
	cfg      PhasesConfig
	// opIndex is the global operation counter that advances the schedule
	// (shared across threads so all threads see the same phase).
	opIndex atomic.Int64
}

// PhasesConfig sizes the dynamic workload.
type PhasesConfig struct {
	Slots          int
	InitialBalance uint64
	// PhaseOps is the length of each phase in operations (across all
	// threads).
	PhaseOps int
	// AuditRange is the span of read-only range audits.
	AuditRange int
	// ReadPhaseUpdateRatio is the fraction of transfers during the
	// read-heavy phase (the rest are audits).
	ReadPhaseUpdateRatio float64
	// WritePhaseRebalanceRatio is the fraction of whole-array rebalance
	// transactions during the update-heavy phase (the rest are
	// transfers).
	WritePhaseRebalanceRatio float64
}

// DefaultPhasesConfig returns the experiment sizing.
func DefaultPhasesConfig() PhasesConfig {
	return PhasesConfig{
		Slots:                    1024,
		InitialBalance:           1000,
		PhaseOps:                 120_000,
		AuditRange:               128,
		ReadPhaseUpdateRatio:     0.05,
		WritePhaseRebalanceRatio: 0.50,
	}
}

// NewPhases builds the array.
func NewPhases(rt *stm.Runtime, cfg PhasesConfig) *Phases {
	if cfg.AuditRange <= 0 || cfg.AuditRange > cfg.Slots {
		cfg.AuditRange = cfg.Slots
	}
	p := &Phases{
		rt:      rt,
		slots:   cfg.Slots,
		initial: cfg.InitialBalance,
		cfg:     cfg,
		schedule: workload.NewSchedule(
			workload.Phase{Ops: cfg.PhaseOps, UpdateRatio: cfg.ReadPhaseUpdateRatio, Label: "read-heavy"},
			workload.Phase{Ops: cfg.PhaseOps, UpdateRatio: cfg.WritePhaseRebalanceRatio, Label: "update-heavy"},
		),
	}
	rt.Run(func(tx *stm.Tx) error {
		p.arr = txds.NewCounterArray(tx, rt, "phases.arr", cfg.Slots, cfg.InitialBalance)
		return nil
	})
	return p
}

// CurrentPhase returns the label of the active phase.
func (p *Phases) CurrentPhase() string {
	return p.schedule.At(int(p.opIndex.Load())).Label
}

// Op runs one operation under the phase active at the global counter.
func (p *Phases) Op(rng *workload.Rng) {
	idx := int(p.opIndex.Add(1))
	phase := p.schedule.At(idx)
	switch phase.Label {
	case "read-heavy":
		if rng.Float64() < phase.UpdateRatio {
			p.transfer(rng)
		} else {
			p.audit(rng)
		}
	default: // update-heavy
		if rng.Float64() < phase.UpdateRatio {
			p.rebalance(rng)
		} else {
			p.transfer(rng)
		}
	}
}

// audit is a read-only range sum.
func (p *Phases) audit(rng *workload.Rng) {
	start := rng.Intn(p.slots - p.cfg.AuditRange + 1)
	p.rt.Run(func(tx *stm.Tx) error {
		var s uint64
		for i := 0; i < p.cfg.AuditRange; i++ {
			s += p.arr.Get(tx, start+i)
		}
		_ = s
		return nil
	}, stm.ReadOnly())
}

// transfer is a short two-slot update.
func (p *Phases) transfer(rng *workload.Rng) {
	from, to := rng.Intn(p.slots), rng.Intn(p.slots)
	p.rt.Run(func(tx *stm.Tx) error { p.arr.Transfer(tx, from, to, 1); return nil })
}

// rebalance scans the whole array, finds the fullest and emptiest slots,
// and moves one unit between them — a long update transaction whose read
// set spans the array.
func (p *Phases) rebalance(rng *workload.Rng) {
	p.rt.Run(func(tx *stm.Tx) error {
		maxI, minI := 0, 0
		var maxV, minV uint64
		maxV, minV = 0, ^uint64(0)
		for i := 0; i < p.slots; i++ {
			v := p.arr.Get(tx, i)
			if v > maxV {
				maxV, maxI = v, i
			}
			if v < minV {
				minV, minI = v, i
			}
		}
		if maxI != minI && maxV > 0 {
			p.arr.Transfer(tx, maxI, minI, 1)
		}
		return nil
	})
}

// CheckInvariants verifies conservation of the array total.
func (p *Phases) CheckInvariants() string {
	var sum uint64
	p.rt.Run(func(tx *stm.Tx) error { sum = p.arr.Sum(tx); return nil }, stm.ReadOnly())
	want := uint64(p.slots) * p.initial
	if sum != want {
		return fmt.Sprintf("phases: array total %d, want %d", sum, want)
	}
	return ""
}
