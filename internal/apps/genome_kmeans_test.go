package apps

import (
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/stm"
)

func newAppRT(t testing.TB) *stm.Runtime {
	t.Helper()
	rt, err := stm.New(stm.Config{HeapWords: 1 << 21, BlockShift: 10})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestGenomeSingleThread(t *testing.T) {
	rt := newAppRT(t)
	g := NewGenome(rt, GenomeConfig{SegmentSpace: 1 << 10, Buckets: 64, LinkSlots: 128})
	rng := workload.NewRng(3)
	for i := 0; i < 4000; i++ {
		g.Op(rng)
	}
	unique, indexed, links := g.Stats()
	if unique == 0 {
		t.Fatal("no unique segments deduplicated")
	}
	if indexed == 0 {
		t.Fatal("no prefixes indexed")
	}
	if links == 0 {
		t.Fatal("no overlaps linked — segment folding should produce matches")
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	// The pool must saturate: with a 1024-value space, 4000 arrivals leave
	// few fresh segments, so uniques are far below arrivals.
	if unique > 2048 {
		t.Fatalf("unique = %d, expected saturation below space size", unique)
	}
}

// TestGenomeDedupExact checks the dedup set admits each distinct segment
// exactly once even when every arrival is a duplicate storm.
func TestGenomeDedupExact(t *testing.T) {
	rt := newAppRT(t)
	g := NewGenome(rt, GenomeConfig{SegmentSpace: 32, Buckets: 16, LinkSlots: 64})
	rng := workload.NewRng(5)
	for i := 0; i < 2000; i++ {
		g.Op(rng)
	}
	unique, _, _ := g.Stats()
	// 32 raw values fold to at most 32 distinct segments.
	if unique > 32 {
		t.Fatalf("unique = %d from a 32-value space", unique)
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestGenomeConcurrent(t *testing.T) {
	rt := newAppRT(t)
	g := NewGenome(rt, GenomeConfig{SegmentSpace: 1 << 10, Buckets: 64, LinkSlots: 128})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRng(seed)
			for i := 0; i < 1500; i++ {
				g.Op(rng)
			}
		}(uint64(w) + 11)
	}
	wg.Wait()
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	unique, indexed, _ := g.Stats()
	if unique == 0 || indexed == 0 {
		t.Fatalf("no progress under concurrency: unique=%d indexed=%d", unique, indexed)
	}
}

// TestGenomePartitionDiscovery verifies the profiler separates genome's
// three structures into distinct partitions.
func TestGenomePartitionDiscovery(t *testing.T) {
	rt := newAppRT(t)
	rt.StartProfiling()
	g := NewGenome(rt, GenomeConfig{SegmentSpace: 1 << 10, Buckets: 64, LinkSlots: 128})
	rng := workload.NewRng(7)
	for i := 0; i < 1000; i++ {
		g.Op(rng)
	}
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		t.Fatal(err)
	}
	if n := rt.NumPartitions(); n < 4 { // global + 3 structures
		t.Fatalf("partitions = %d, want >= 4\n%s", n, plan.Describe(rt.Sites()))
	}
}

func TestKMeansSingleThread(t *testing.T) {
	rt := newAppRT(t)
	cfg := KMeansConfig{K: 4, Dim: 2, Points: 256, RecomputeRatio: 0.01}
	km := NewKMeans(rt, cfg, 1)
	rng := workload.NewRng(9)
	for i := 0; i < 3000; i++ {
		km.Op(rng, cfg)
	}
	if msg := km.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	km.Recompute()
	if got := km.AssignedCount(); got != 0 {
		t.Fatalf("accumulators not cleared after recompute: %d", got)
	}
}

// TestKMeansAssignCounts verifies each assignment increments exactly one
// accumulator count.
func TestKMeansAssignCounts(t *testing.T) {
	rt := newAppRT(t)
	cfg := KMeansConfig{K: 4, Dim: 2, Points: 128, RecomputeRatio: 0}
	km := NewKMeans(rt, cfg, 2)
	rng := workload.NewRng(4)
	const ops = 500
	for i := 0; i < ops; i++ {
		km.Assign(rng)
	}
	if got := km.AssignedCount(); got != ops {
		t.Fatalf("assigned count = %d, want %d", got, ops)
	}
}

func TestKMeansConcurrent(t *testing.T) {
	rt := newAppRT(t)
	cfg := KMeansConfig{K: 4, Dim: 2, Points: 512, RecomputeRatio: 0.005}
	km := NewKMeans(rt, cfg, 3)
	const workers, perW = 4, 800
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRng(seed)
			for i := 0; i < perW; i++ {
				km.Op(rng, cfg)
			}
		}(uint64(w) + 31)
	}
	wg.Wait()
	if msg := km.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestKMeansPartitionDiscovery verifies points, centroids and accumulators
// land in separate partitions with visibly different profiles.
func TestKMeansPartitionDiscovery(t *testing.T) {
	rt := newAppRT(t)
	rt.StartProfiling()
	cfg := KMeansConfig{K: 4, Dim: 2, Points: 256, RecomputeRatio: 0.01}
	km := NewKMeans(rt, cfg, 5)
	rng := workload.NewRng(6)
	for i := 0; i < 500; i++ {
		km.Op(rng, cfg)
	}
	if _, err := rt.StopProfilingAndPartition(); err != nil {
		t.Fatal(err)
	}
	if n := rt.NumPartitions(); n < 4 { // global + 3 arrays
		t.Fatalf("partitions = %d, want >= 4", n)
	}
}
