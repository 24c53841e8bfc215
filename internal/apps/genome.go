package apps

import (
	"fmt"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// Genome is a STAMP-genome-inspired sequence-assembly workload. The
// original benchmark deduplicates DNA segments into a hash set, indexes
// them by prefix, and links overlapping segments into contigs. This
// reimplementation keeps the three structures and their very different
// transactional profiles:
//
//   - segments: a hash set taking the dedup inserts — update-heavy while
//     fresh segments arrive, read-mostly once the pool saturates.
//   - index: a hash set keyed by segment prefix — written once per unique
//     segment, then read-only during matching.
//   - contigs: link nodes chaining matched segments — append-only writes
//     concentrated on recently inserted segments.
//
// Because the phases drift (dedup-heavy at the start, match-heavy later),
// genome exercises both the partitioner (three structures, three
// partitions) and the runtime tuner (per-partition profiles change as the
// pool saturates). Segments are synthetic 64-bit values; the "overlap" of
// the paper's DNA strings is modeled as suffix-half == prefix-half, which
// preserves the index-lookup-then-link transaction shape.
type Genome struct {
	rt       *stm.Runtime
	segments *txds.HashSet // segment value → 1 (dedup set)
	index    *txds.HashSet // prefix (high 32 bits) → segment value
	links    *txds.CounterArray
	nLinks   int

	segGen workload.KeyGen
}

// GenomeConfig sizes the workload.
type GenomeConfig struct {
	// SegmentSpace is the number of distinct possible segments; smaller
	// values saturate the dedup set sooner.
	SegmentSpace uint64
	// Buckets sizes both hash sets.
	Buckets int
	// LinkSlots bounds the contig link table.
	LinkSlots int
}

// DefaultGenomeConfig returns the sizing used by the experiments.
func DefaultGenomeConfig() GenomeConfig {
	return GenomeConfig{SegmentSpace: 1 << 14, Buckets: 1 << 10, LinkSlots: 1 << 12}
}

// NewGenome allocates the three structures (empty; segments arrive through
// Op).
func NewGenome(rt *stm.Runtime, cfg GenomeConfig) *Genome {
	if cfg.SegmentSpace == 0 {
		cfg = DefaultGenomeConfig()
	}
	g := &Genome{
		rt:     rt,
		nLinks: cfg.LinkSlots,
		segGen: workload.Uniform{N: cfg.SegmentSpace},
	}
	rt.Run(func(tx *stm.Tx) error {
		g.segments = txds.NewHashSet(tx, rt, "genome.segments", cfg.Buckets)
		g.index = txds.NewHashSet(tx, rt, "genome.index", cfg.Buckets)
		g.links = txds.NewCounterArray(tx, rt, "genome.links", cfg.LinkSlots, 0)
		return nil
	})
	return g
}

// Op processes one arriving segment: dedup-insert it, and if it is fresh,
// index its prefix and try to link it to an already-indexed segment whose
// prefix equals this segment's suffix. One transaction, the same shape as
// STAMP genome's per-segment work.
func (g *Genome) Op(rng *workload.Rng) {
	raw := g.segGen.Next(rng)
	// Derive a segment whose suffix half overlaps another segment's prefix
	// half with reasonable probability: fold the space onto 16-bit halves.
	seg := ((raw&0xFFFF)<<16 | (raw>>16)&0xFFFF) | 1
	g.rt.Run(func(tx *stm.Tx) error {
		if !g.segments.Insert(tx, seg, 1) {
			return nil // duplicate: dedup rejected it, nothing else to do
		}
		prefix := seg >> 16 & 0xFFFF
		suffix := seg & 0xFFFF
		g.index.Insert(tx, prefix, seg)
		if other, ok := g.index.Lookup(tx, suffix); ok && other != seg {
			// Record the link in the contig table (slot hashed by pair).
			slot := int((seg*0x9E3779B97F4A7C15 ^ other) % uint64(g.nLinks))
			g.links.Add(tx, slot, 1)
		}
		return nil
	})
}

// Stats summarizes assembly progress.
func (g *Genome) Stats() (unique, indexed int, linkCount uint64) {
	g.rt.Run(func(tx *stm.Tx) error {
		unique = g.segments.Len(tx)
		indexed = g.index.Len(tx)
		linkCount = g.links.Sum(tx)
		return nil
	}, stm.ReadOnly())
	return unique, indexed, linkCount
}

// CheckInvariants verifies the dedup and index relationship: the index
// holds at most one entry per distinct prefix, and never more entries
// than unique segments.
func (g *Genome) CheckInvariants() string {
	unique, indexed, _ := g.Stats()
	if indexed > unique {
		return fmt.Sprintf("genome: %d indexed prefixes > %d unique segments", indexed, unique)
	}
	if indexed > 1<<16 {
		return fmt.Sprintf("genome: %d indexed prefixes exceeds prefix space", indexed)
	}
	return ""
}
