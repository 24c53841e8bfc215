package apps

import (
	"fmt"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// Pipeline is a staged producer/consumer application: tokens flow from an
// intake queue through a transform stage into an output queue. Queues
// concentrate all traffic on their head/tail words, so each queue is a
// maximal-contention partition — the opposite end of the spectrum from
// the reservation tables, and the reason a queue partition wants a
// different concurrency-control configuration (short spins, coarse
// detection) than a tree partition.
type Pipeline struct {
	rt     *stm.Runtime
	intake *txds.Queue
	output *txds.Queue
	// produced/consumed counters live on the heap so the token balance
	// is transactionally consistent.
	counters stm.Addr // [0]=produced, [1]=consumed
}

// PipelineConfig sizes the pipeline.
type PipelineConfig struct {
	// InitialTokens are preloaded into the intake queue.
	InitialTokens int
}

// NewPipeline builds the queues and preloads tokens.
func NewPipeline(rt *stm.Runtime, cfg PipelineConfig) *Pipeline {
	p := &Pipeline{rt: rt}
	ctrSite := rt.RegisterSite("pipeline.counters")
	rt.Run(func(tx *stm.Tx) error {
		p.intake = txds.NewQueue(tx, rt, "pipeline.intake")
		p.output = txds.NewQueue(tx, rt, "pipeline.output")
		p.counters = tx.Alloc(ctrSite, 2)
		tx.Store(p.counters, 0)
		tx.Store(p.counters+1, 0)
		return nil
	})
	for i := 0; i < cfg.InitialTokens; i++ {
		v := uint64(i)
		rt.Run(func(tx *stm.Tx) error {
			p.intake.Enqueue(tx, v)
			tx.Store(p.counters, tx.Load(p.counters)+1)
			return nil
		})
	}
	return p
}

// Produce enqueues a fresh token.
func (p *Pipeline) Produce(rng *workload.Rng) {
	v := rng.Uint64() >> 1
	p.rt.Run(func(tx *stm.Tx) error {
		p.intake.Enqueue(tx, v)
		tx.Store(p.counters, tx.Load(p.counters)+1)
		return nil
	})
}

// Transform moves one token from intake to output, applying a small
// computation; it reports whether a token was available.
func (p *Pipeline) Transform() bool {
	moved := false
	p.rt.Run(func(tx *stm.Tx) error {
		moved = false
		v, ok := p.intake.Dequeue(tx)
		if !ok {
			return nil
		}
		p.output.Enqueue(tx, v*2+1)
		moved = true
		return nil
	})
	return moved
}

// Consume removes one token from the output; it reports whether one was
// available.
func (p *Pipeline) Consume() bool {
	got := false
	p.rt.Run(func(tx *stm.Tx) error {
		got = false
		if _, ok := p.output.Dequeue(tx); !ok {
			return nil
		}
		tx.Store(p.counters+1, tx.Load(p.counters+1)+1)
		got = true
		return nil
	})
	return got
}

// Op runs one pipeline step drawn from a balanced mix.
func (p *Pipeline) Op(rng *workload.Rng) {
	switch rng.Intn(3) {
	case 0:
		p.Produce(rng)
	case 1:
		p.Transform()
	default:
		p.Consume()
	}
}

// CheckInvariants verifies token conservation:
// produced == consumed + in(intake) + in(output).
func (p *Pipeline) CheckInvariants() string {
	var msg string
	p.rt.Run(func(tx *stm.Tx) error {
		msg = ""
		produced := tx.Load(p.counters)
		consumed := tx.Load(p.counters + 1)
		inFlight := uint64(p.intake.Len(tx) + p.output.Len(tx))
		if produced != consumed+inFlight {
			msg = fmt.Sprintf("pipeline: produced %d != consumed %d + in-flight %d",
				produced, consumed, inFlight)
		}
		return nil
	})
	return msg
}
