package bench

import (
	"time"

	"repro/internal/workload"
	"repro/stm"
)

// MicroResult is one micro-measurement: wall time per operation on a
// single thread, free of harness scheduling noise.
type MicroResult struct {
	Iters   int
	Total   time.Duration
	NsPerOp float64
}

// MeasureOp times op on a single goroutine: warmup iterations untimed,
// then iters timed. Use it for microbenchmarks of primitive transaction
// costs inside experiments, where testing.B is not available.
func MeasureOp(rt *stm.Runtime, warmup, iters int, op OpFunc) MicroResult {
	rng := workload.NewRng(42)
	for i := 0; i < warmup; i++ {
		op(rng)
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		op(rng)
	}
	total := time.Since(t0)
	return MicroResult{
		Iters:   iters,
		Total:   total,
		NsPerOp: float64(total.Nanoseconds()) / float64(iters),
	}
}
