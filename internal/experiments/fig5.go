package experiments

import "fmt"

// Fig5 reproduces the application benchmark: vacation (four tables plus
// customer records) under three regimes — global default, global
// update-oriented, and automatic partitioning with runtime tuning. The
// application contains both read-dominated structures (reservation
// tables under the default low-update mix) and update-heavy ones
// (customer records during bookings), so per-partition settings should
// match or beat either global choice.
func Fig5(o Options) (*Report, error) {
	o = o.normalized()
	vcfg := vacationConfig(o)
	// Raise the contention the way the paper's vacation-high mix does.
	vcfg.DeleteCustomerRatio = 0.05
	vcfg.UpdateTableRatio = 0.05
	out, tunedBest, globalBest, err := regimeFigure(o, "Fig. 5 — vacation throughput (ops/s)",
		vacationApp(vcfg), regimeTuner(), 77)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:     "fig5",
		Title:  "Vacation application: partitioned+tuned vs global configs",
		Output: out,
		Summary: fmt.Sprintf("tuned peak %.0f ops/s vs best global %.0f ops/s (ratio %.2f)",
			tunedBest, globalBest, safeDiv(tunedBest, globalBest)),
	}, nil
}
