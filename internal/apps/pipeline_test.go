package apps

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

func TestPipelineSequential(t *testing.T) {
	rt := newRT(t, 0)
	p := NewPipeline(rt, PipelineConfig{InitialTokens: 10})
	if msg := p.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if !p.Transform() {
		t.Fatal("transform with tokens available failed")
	}
	if !p.Consume() {
		t.Fatal("consume with output available failed")
	}
	// Drain completely.
	for p.Transform() {
	}
	for p.Consume() {
	}
	if p.Transform() || p.Consume() {
		t.Fatal("empty pipeline still moved tokens")
	}
	if msg := p.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestPipelineConcurrentConservation(t *testing.T) {
	rt := newRT(t, 8)
	p := NewPipeline(rt, PipelineConfig{InitialTokens: 50})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRng(seed)
			for i := 0; i < 2000; i++ {
				p.Op(rng)
			}
		}(uint64(w) + 40)
	}
	wg.Wait()
	if msg := p.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestPipelinePartitions(t *testing.T) {
	rt := newRT(t, 0)
	rt.StartProfiling()
	p := NewPipeline(rt, PipelineConfig{InitialTokens: 20})
	rng := workload.NewRng(3)
	for i := 0; i < 200; i++ {
		p.Op(rng)
	}
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		t.Fatal(err)
	}
	// intake (meta+node), output (meta+node), counters → 3 partitions + global.
	if got := plan.NumPartitions(); got != 4 {
		t.Fatalf("NumPartitions = %d\n%s", got, plan.Describe(rt.Sites()))
	}
}
