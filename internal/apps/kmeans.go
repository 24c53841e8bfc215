package apps

import (
	"fmt"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// KMeans is a STAMP-kmeans-inspired clustering workload. Each operation
// assigns one point to its nearest centroid and folds the point into that
// centroid's accumulator; a periodic long transaction recomputes centroid
// positions from the accumulators. The two structures are transactional
// opposites:
//
//   - centroids (K positions): read by every assignment, rewritten only by
//     the rare recompute — a read-mostly partition that wants invisible
//     reads.
//   - accumulators (K sum/count pairs): written by every assignment — a
//     tiny write-hot partition where visible reads or coarse conflict
//     detection pay off.
//
// Points live in an immutable table read transactionally, adding a large
// read-only partition. K is small, so accumulator contention is real, as
// in STAMP where kmeans is the high-contention member of the suite.
type KMeans struct {
	rt     *stm.Runtime
	k      int
	dim    int
	points *txds.CounterArray // n*dim point coordinates, written once
	cents  *txds.CounterArray // k*dim centroid coordinates
	accum  *txds.CounterArray // k*(dim+1): per-cluster coordinate sums + count
	n      int
}

// KMeansConfig sizes the workload.
type KMeansConfig struct {
	K      int // clusters
	Dim    int // coordinates per point
	Points int
	// RecomputeRatio is the fraction of operations that run the long
	// centroid-recompute transaction.
	RecomputeRatio float64
}

// DefaultKMeansConfig returns the sizing used by the experiments.
func DefaultKMeansConfig() KMeansConfig {
	return KMeansConfig{K: 8, Dim: 4, Points: 1 << 12, RecomputeRatio: 0.002}
}

// NewKMeans allocates and fills the point table and seeds centroids with
// the first K points.
func NewKMeans(rt *stm.Runtime, cfg KMeansConfig, seed uint64) *KMeans {
	if cfg.K == 0 {
		cfg = DefaultKMeansConfig()
	}
	if cfg.Dim > 16 {
		cfg.Dim = 16 // Assign's coordinate buffer is fixed-size
	}
	km := &KMeans{rt: rt, k: cfg.K, dim: cfg.Dim, n: cfg.Points}
	rng := workload.NewRng(seed)
	rt.Run(func(tx *stm.Tx) error {
		km.points = txds.NewCounterArray(tx, rt, "kmeans.points", cfg.Points*cfg.Dim, 0)
		km.cents = txds.NewCounterArray(tx, rt, "kmeans.centroids", cfg.K*cfg.Dim, 0)
		km.accum = txds.NewCounterArray(tx, rt, "kmeans.accum", cfg.K*(cfg.Dim+1), 0)
		return nil
	})
	// Fill points in batches (one giant transaction would dwarf the arena
	// write set; batches keep populate cheap and conflict-free).
	const batch = 256
	for base := 0; base < cfg.Points*cfg.Dim; base += batch {
		end := base + batch
		if end > cfg.Points*cfg.Dim {
			end = cfg.Points * cfg.Dim
		}
		rt.Run(func(tx *stm.Tx) error {
			for i := base; i < end; i++ {
				km.points.Set(tx, i, rng.Uint64()%1024)
			}
			return nil
		})
	}
	rt.Run(func(tx *stm.Tx) error {
		for c := 0; c < cfg.K; c++ {
			for d := 0; d < cfg.Dim; d++ {
				km.cents.Set(tx, c*cfg.Dim+d, km.points.Get(tx, c*cfg.Dim+d))
			}
		}
		return nil
	})
	return km
}

// Assign runs one assignment transaction: read a random point, find the
// nearest centroid (reads K*dim centroid words), and fold the point into
// that centroid's accumulator (dim+1 writes to the hot partition).
func (km *KMeans) Assign(rng *workload.Rng) int {
	p := rng.Intn(km.n)
	var chosen int
	km.rt.Run(func(tx *stm.Tx) error {
		var coords [16]uint64
		for d := 0; d < km.dim; d++ {
			coords[d] = km.points.Get(tx, p*km.dim+d)
		}
		best, bestDist := 0, ^uint64(0)
		for c := 0; c < km.k; c++ {
			var dist uint64
			for d := 0; d < km.dim; d++ {
				cv := km.cents.Get(tx, c*km.dim+d)
				diff := coords[d] - cv
				if cv > coords[d] {
					diff = cv - coords[d]
				}
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		for d := 0; d < km.dim; d++ {
			km.accum.Add(tx, best*(km.dim+1)+d, coords[d])
		}
		km.accum.Add(tx, best*(km.dim+1)+km.dim, 1)
		chosen = best
		return nil
	})
	return chosen
}

// Recompute folds the accumulators into new centroid positions and clears
// them — the long update transaction that sweeps both partitions.
func (km *KMeans) Recompute() {
	km.rt.Run(func(tx *stm.Tx) error {
		for c := 0; c < km.k; c++ {
			count := km.accum.Get(tx, c*(km.dim+1)+km.dim)
			if count == 0 {
				continue
			}
			for d := 0; d < km.dim; d++ {
				sum := km.accum.Get(tx, c*(km.dim+1)+d)
				km.cents.Set(tx, c*km.dim+d, sum/count)
				km.accum.Set(tx, c*(km.dim+1)+d, 0)
			}
			km.accum.Set(tx, c*(km.dim+1)+km.dim, 0)
		}
		return nil
	})
}

// Op runs one operation from the configured mix.
func (km *KMeans) Op(rng *workload.Rng, cfg KMeansConfig) {
	if rng.Float64() < cfg.RecomputeRatio {
		km.Recompute()
		return
	}
	km.Assign(rng)
}

// AssignedCount sums the accumulator counts (assignments since the last
// recompute).
func (km *KMeans) AssignedCount() uint64 {
	var total uint64
	km.rt.Run(func(tx *stm.Tx) error {
		for c := 0; c < km.k; c++ {
			total += km.accum.Get(tx, c*(km.dim+1)+km.dim)
		}
		return nil
	}, stm.ReadOnly())
	return total
}

// CheckInvariants verifies centroid coordinates stay inside the point
// coordinate domain (means of values < 1024 must be < 1024) and that
// accumulator counts are consistent with their sums.
func (km *KMeans) CheckInvariants() string {
	var bad string
	km.rt.Run(func(tx *stm.Tx) error {
		for c := 0; c < km.k; c++ {
			for d := 0; d < km.dim; d++ {
				if v := km.cents.Get(tx, c*km.dim+d); v >= 1024 {
					bad = fmt.Sprintf("kmeans: centroid %d dim %d = %d out of domain", c, d, v)
					return nil
				}
			}
			count := km.accum.Get(tx, c*(km.dim+1)+km.dim)
			for d := 0; d < km.dim; d++ {
				sum := km.accum.Get(tx, c*(km.dim+1)+d)
				if count == 0 && sum != 0 {
					bad = fmt.Sprintf("kmeans: cluster %d has sum %d with zero count", c, sum)
					return nil
				}
				if sum > count*1024 {
					bad = fmt.Sprintf("kmeans: cluster %d sum %d exceeds count %d * max", c, sum, count)
					return nil
				}
			}
		}
		return nil
	}, stm.ReadOnly())
	return bad
}
