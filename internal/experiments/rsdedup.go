package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/workload"
	"repro/stm"
)

// RsDedup is an extension experiment beyond the paper's artefacts: it
// quantifies that validation and per-access bookkeeping cost is bounded by
// a transaction's footprint (unique orecs touched), not by the number of
// loads it executes. A read-only transaction sweeps a fixed footprint of F
// words `passes` times, so loads grow as passes×F while the footprint
// stays F; TinySTM-style read-set deduplication must keep the read set at
// F entries and the per-load cost flat (the pre-dedup engine grew the read
// set — and with it every validate/extend walk — linearly in loads). A
// second table does the same for the write set across the three write
// modes, exercising the open-addressed write-set index.
func RsDedup(o Options) (*Report, error) {
	o = o.normalized()
	const words = 128
	passesSweep := []int{1, 2, 4, 8, 16, 32}
	if o.Quick {
		passesSweep = []int{1, 4, 16}
	}

	var out strings.Builder
	out.WriteString("Read-set dedup: fixed footprint, growing loads (single thread)\n")
	out.WriteString("passes  loads/tx  readset  ns/load  ns/tx\n")

	// Single-thread latency measurement: interleaving simulation
	// (YieldEveryOps) would only add scheduler noise, so it stays off.
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22})
	var base stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		base = tx.Alloc(stm.SiteID(0), words)
		for i := 0; i < words; i++ {
			tx.Store(base+stm.Addr(i), uint64(i))
		}
		return nil
	})

	iters := 4000
	if o.Quick {
		iters = 800
	}
	var nsPerLoadMin, nsPerLoadMax float64
	var rsLen int
	for _, passes := range passesSweep {
		p := passes
		res := bench.MeasureOp(rt, iters/4, iters, func(_ *workload.Rng) {
			rt.Run(func(tx *stm.Tx) error {
				var sink uint64
				for k := 0; k < p; k++ {
					for i := 0; i < words; i++ {
						sink += tx.Load(base + stm.Addr(i))
					}
				}
				_ = sink
				rsLen = tx.ReadSetLen()
				return nil
			}, stm.ReadOnly())
		})
		loads := p * words
		nsPerLoad := res.NsPerOp / float64(loads)
		if nsPerLoadMin == 0 || nsPerLoad < nsPerLoadMin {
			nsPerLoadMin = nsPerLoad
		}
		if nsPerLoad > nsPerLoadMax {
			nsPerLoadMax = nsPerLoad
		}
		out.WriteString(fmt.Sprintf("%-7d %-9d %-8d %-8.1f %.0f\n",
			p, loads, rsLen, nsPerLoad, res.NsPerOp))
		if rsLen != words {
			return nil, fmt.Errorf("rsdedup: read set has %d entries for footprint %d", rsLen, words)
		}
	}

	out.WriteString("\nWrite-set index: unique addresses per transaction (single thread)\n")
	out.WriteString("mode  writes/tx  writeset  ns/store\n")
	wmodes := []struct {
		name string
		mut  func(*stm.PartConfig)
	}{
		{"wb", func(c *stm.PartConfig) {}},
		{"wt", func(c *stm.PartConfig) { c.Write = stm.WriteThrough }},
		{"ctl", func(c *stm.PartConfig) { c.Acquire = stm.CommitTime }},
	}
	wsizes := []int{4, 64, 512}
	if o.Quick {
		wsizes = []int{4, 64}
	}
	for _, m := range wmodes {
		for _, n := range wsizes {
			cfg := stm.DefaultPartConfig()
			m.mut(&cfg)
			wrt := stm.MustNew(stm.Config{HeapWords: 1 << 22, Default: &cfg})
			var wbase stm.Addr
			wrt.Run(func(tx *stm.Tx) error {
				wbase = tx.Alloc(stm.SiteID(0), n)
				for i := 0; i < n; i++ {
					tx.Store(wbase+stm.Addr(i), 0)
				}
				return nil
			})
			wn := n
			var wsLen int
			witers := 2000
			if o.Quick {
				witers = 400
			}
			res := bench.MeasureOp(wrt, witers/4, witers, func(_ *workload.Rng) {
				wrt.Run(func(tx *stm.Tx) error {
					// Two rounds per address: the second round must dedup.
					for round := 0; round < 2; round++ {
						for i := 0; i < wn; i++ {
							tx.Store(wbase+stm.Addr(i), uint64(round*wn+i))
						}
					}
					wsLen = tx.WriteSetLen()
					return nil
				})
			})
			out.WriteString(fmt.Sprintf("%-5s %-10d %-9d %.1f\n",
				m.name, 2*wn, wsLen, res.NsPerOp/float64(2*wn)))
			if wsLen != wn {
				return nil, fmt.Errorf("rsdedup: write set has %d entries for %d unique addresses", wsLen, wn)
			}
		}
	}

	flatness := safeDiv(nsPerLoadMax, nsPerLoadMin)
	return &Report{
		ID:     "rsdedup",
		Title:  "Footprint-bounded bookkeeping: validate cost vs loads executed",
		Output: out.String(),
		Summary: fmt.Sprintf("read set stays at footprint (%d orecs) across %dx load growth; ns/load max/min ratio %.2f (flat); write set bounded by unique addresses in all write modes",
			words, passesSweep[len(passesSweep)-1], flatness),
	}, nil
}
