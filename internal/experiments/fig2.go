package experiments

import "fmt"

// Fig2 reproduces the multi-structure microbenchmark figure: throughput
// of the composite intset application (four structures with different
// characteristics in one program) under
//
//   - one global default configuration (invisible reads),
//   - one global update-oriented configuration (visible reads),
//   - automatic partitioning with the runtime tuner specializing each
//     partition.
//
// The paper's claim: no single global configuration suits all structures;
// per-partition tuning composes the best of each ("performance
// composability").
func Fig2(o Options) (*Report, error) {
	o = o.normalized()
	tc := regimeTuner()
	tc.Hysteresis = 1
	tc.MinCommits = 50
	out, tunedBest, globalBest, err := regimeFigure(o, "Fig. 2 — intset-multi throughput (ops/s)",
		appNamed(o, "intset-multi"), tc, 0)
	if err != nil {
		return nil, err
	}
	verdict := "partitioned+tuned matches or beats the best global configuration"
	if tunedBest < globalBest*0.9 {
		verdict = fmt.Sprintf("REGRESSION: tuned peak %.0f < 0.9× best global %.0f", tunedBest, globalBest)
	}
	return &Report{
		ID:      "fig2",
		Title:   "Multi-structure application: partitioned+tuned vs global configs",
		Output:  out,
		Summary: verdict,
	}, nil
}
