package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare a.json b.json: a is the parent (or the first calibration
// set), b the change (or the second). For every workload and end-to-end
// metric it prints both values, how much worse b is as a share of a, and
// a verdict against the bound recorded in a:
//
//	PASS        b is no worse than a by more than the bound
//	REGRESSED   b is worse than a by more than the bound
//	UNRESOLVED  either side's own spread exceeds the bound, so the
//	            difference cannot be told from noise

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Benchmark != "stmbench" || len(doc.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a full stmbench run", path)
	}
	return &doc, nil
}

// worsening returns how much worse b is than a, as a share of a
// (negative when b is better).
func worsening(a, b docMetric) float64 {
	if a.Value == 0 {
		return 0
	}
	d := (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		d = -d
	}
	return d
}

func verdict(a, b docMetric) string {
	switch {
	case a.Spread > a.Bound || b.Spread > a.Bound:
		return "UNRESOLVED"
	case worsening(a, b) > a.Bound:
		return "REGRESSED"
	}
	return "PASS"
}

func compareFiles(pathA, pathB string, out io.Writer) (regressed bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]docWorkload{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(out, "a: %s (seed %d)   b: %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %q", pathB, wa.Name)
		}
		fmt.Fprintf(out, "\n%s\n", wa.Name)
		fmt.Fprintf(out, "  %-12s %14s %8s %14s %8s %9s %6s  %s\n", "metric", "a", "spread", "b", "spread", "worse by", "bound", "verdict")
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			v := verdict(ma, mb)
			regressed = regressed || v == "REGRESSED"
			fmt.Fprintf(out, "  %-12s %14.6g %7.1f%% %14.6g %7.1f%% %+8.1f%% %5.0f%%  %s\n",
				d.name, ma.Value, 100*ma.Spread, mb.Value, 100*mb.Spread, 100*worsening(ma, mb), 100*ma.Bound, v)
		}
		// The failed share has no tolerance: any increase is a regression.
		if !wb.Correct || share(wb.Failed, wb.Attempted) > share(wa.Failed, wa.Attempted) {
			regressed = true
			fmt.Fprintf(out, "  failed ops: a %d of %d, b %d of %d; outputs correct: a %v, b %v  REGRESSED\n",
				wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, wa.Correct, wb.Correct)
		}
	}
	return regressed, nil
}
