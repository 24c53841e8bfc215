package experiments

import (
	"fmt"

	"repro/internal/stats"
)

// Fig10 extends the application study (fig5) to the two STAMP-inspired
// extension workloads, genome and kmeans (extension experiment). Both
// contain structures whose transactional profiles differ sharply (genome:
// dedup set vs read-only index; kmeans: read-mostly centroids vs
// write-hot accumulators), so the partitioned+tuned configuration should
// track the better of the two global configurations on each application
// without per-application hand-tuning.
func Fig10(o Options) (*Report, error) {
	o = o.normalized()
	tbl := stats.NewTable("Fig. 10 — genome & kmeans (ops/s)",
		"app", "global-invisible", "global-visible", "partitioned+tuned", "tuned/best-global")

	tc := regimeTuner()
	var summaries []string
	for _, a := range catalog(o) {
		if !a.extension {
			continue
		}
		row := []string{a.name}
		var tput [3]float64
		for r := range regimes {
			var err error
			if tput[r], err = runRegime(o, a, r, tc, o.Threads, uint64(r)+501); err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", tput[r]))
		}
		ratio := safeDiv(tput[tunedRegime], max(tput[0], tput[1]))
		tbl.AddRow(append(row, fmtFloat(ratio, 2))...)
		summaries = append(summaries, fmt.Sprintf("%s tuned/best-global %.2f", a.name, ratio))
	}

	return &Report{
		ID:      "fig10",
		Title:   "Extension applications (genome, kmeans): partitioned+tuned vs global configs",
		Output:  tbl.Render(),
		Summary: fmt.Sprint(summaries),
	}, nil
}
