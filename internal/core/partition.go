package core

import (
	"sync/atomic"

	"repro/internal/mvstore"
)

// PartID identifies a partition. Partition 0 always exists and is the
// default ("global") partition: with no partitioning plan installed, every
// address maps to it and the engine degenerates to a classic single-table
// STM — that configuration is the paper's baseline.
type PartID uint32

// GlobalPartition is the id of the default partition.
const GlobalPartition PartID = 0

// partState bundles a partition's configuration with the orec table built
// for it. Config and table are swapped together, atomically, during
// quiescent reconfiguration, so a transaction always sees a matching pair.
type partState struct {
	cfg   PartConfig
	table *orecTable
	gen   uint64 // configuration generation, bumped on every reconfigure
	// part points back to the owning partition, so protocol code holding a
	// state (write entries) can recover the partition id without
	// re-running the address→partition lookup.
	part *Partition
	// hist is the partition's multi-version snapshot store (nil when
	// cfg.HistCap == 0). It lives in the state, not the partition, because
	// its records certify value intervals against THIS orec table's version
	// timeline: a reconfiguration rebuilds the table with versions reset to
	// 0, so the first commit after it records prevVersion 0 — which would
	// wrongly cover every older snapshot if stale records survived the
	// swap. Tying the buffer to the state makes every rebuild start clean.
	hist *mvstore.Buffer
}

// newPartState builds a state (config, orec table, snapshot store) for p.
func newPartState(p *Partition, cfg PartConfig, gen uint64) *partState {
	st := &partState{
		cfg:   cfg,
		table: newOrecTable(cfg.LockBits, cfg.GranShift, cfg.Read == VisibleReads),
		gen:   gen,
		part:  p,
	}
	if cfg.HistCap > 0 {
		st.hist = mvstore.New(int(cfg.HistCap))
	}
	return st
}

// Partition is one unit of independent concurrency control.
type Partition struct {
	id    PartID
	name  string
	state atomic.Pointer[partState]
}

func newPartition(id PartID, name string, cfg PartConfig) *Partition {
	p := &Partition{id: id, name: name}
	p.state.Store(newPartState(p, cfg.Normalize(), 0))
	return p
}

// ID returns the partition's identifier.
func (p *Partition) ID() PartID { return p.id }

// Name returns the partition's human-readable name.
func (p *Partition) Name() string { return p.name }

// Config returns the partition's current configuration.
func (p *Partition) Config() PartConfig { return p.state.Load().cfg }

// loadState returns the current state; stable for the duration of a
// transaction because reconfiguration only happens while no transaction
// is active (see Engine.Reconfigure).
func (p *Partition) loadState() *partState { return p.state.Load() }
