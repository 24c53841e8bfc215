package experiments

import (
	"strings"
	"testing"
	"time"
)

// tinyOptions shrinks every experiment to smoke-test size.
func tinyOptions() Options {
	return Options{
		Threads:       4,
		PointDuration: 40 * time.Millisecond,
		Warmup:        10 * time.Millisecond,
		YieldEveryOps: 8,
		Quick:         true,
		CSV:           true,
	}
}

func TestLookup(t *testing.T) {
	for _, e := range All() {
		got, err := Lookup(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("Lookup(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestOptionsNormalization(t *testing.T) {
	var o Options
	n := o.normalized()
	if n.Threads <= 0 || n.PointDuration <= 0 || n.YieldEveryOps == 0 {
		t.Fatalf("normalized = %+v", n)
	}
	sweep := Options{Threads: 8}.threadSweep()
	want := []int{1, 2, 4, 8}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v", sweep)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep = %v", sweep)
		}
	}
	q := Options{Threads: 8, Quick: true}.threadSweep()
	if len(q) != 1 || q[0] != 8 {
		t.Fatalf("quick sweep = %v", q)
	}
	odd := Options{Threads: 6}.threadSweep()
	if odd[len(odd)-1] != 6 {
		t.Fatalf("odd sweep = %v", odd)
	}
}

// TestAllExperimentsSmoke runs every artefact at tiny scale: each must
// produce non-empty output and a summary without error, and the
// application reports must keep their titles, columns, series and rows.
// This is the regression net for the whole evaluation pipeline.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	regimes := []string{"global-invisible", "global-visible", "partitioned+tuned"}
	pinned := map[string][]string{
		"table1": {
			"Table 1a — intset-multi partitions",
			"Table 1b — vacation partitions",
			"Table 1c — bank partitions",
			"Table 1d — genome partitions (extension)",
			"Table 1e — kmeans partitions (extension)",
			"partition", "sites", "commits", "upd-ratio", "reads/tx", "writes/tx", "abort-rate",
		},
		"fig2":  regimes,
		"fig5":  regimes,
		"fig10": append([]string{"\ngenome ", "\nkmeans ", "app", "tuned/best-global"}, regimes...),
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(tinyOptions())
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != e.ID {
				t.Fatalf("report id %q", rep.ID)
			}
			if strings.TrimSpace(rep.Output) == "" {
				t.Fatal("empty output")
			}
			if strings.TrimSpace(rep.Summary) == "" {
				t.Fatal("empty summary")
			}
			for _, want := range pinned[e.ID] {
				if !strings.Contains(rep.Output, want) {
					t.Errorf("output lacks %q:\n%s", want, rep.Output)
				}
			}
		})
	}
}
