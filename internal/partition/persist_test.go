package partition

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
)

func persistSites(t *testing.T) *memory.Sites {
	t.Helper()
	a := memory.MustNewArena(memory.Config{CapacityWords: 1 << 12, BlockShift: 8})
	s := a.Sites()
	for _, n := range []string{"t.head", "t.node", "q.meta", "q.node"} {
		s.Register(n)
	}
	return s
}

// TestSaveLoadRoundTrip checks a plan with tuned configs survives
// serialize → parse with identical assignment and configuration.
func TestSaveLoadRoundTrip(t *testing.T) {
	sites := persistSites(t)
	orig, err := ManualPlan(sites, core.DefaultPartConfig(), map[string][]string{
		"tree":  {"t.head", "t.node"},
		"queue": {"q.meta", "q.node"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tune partition "queue" (id depends on sort order: queue < tree).
	tuned := core.DefaultPartConfig()
	tuned.Read = core.VisibleReads
	tuned.CM = core.CMSuicide
	tuned.LockBits = 7
	tuned.GranShift = 2
	tuned.ReaderCM = core.WriterYieldsToReaders
	tuned.HistCap = 1024
	if err := orig.SetConfig(1, tuned); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.Save(&buf, sites, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlan(&buf, sites, core.DefaultPartConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPartitions() != orig.NumPartitions() {
		t.Fatalf("partitions %d != %d", loaded.NumPartitions(), orig.NumPartitions())
	}
	for s := memory.SiteID(0); int(s) < sites.Count(); s++ {
		op := orig.Names[orig.PartitionOfSite(s)]
		lp := loaded.Names[loaded.PartitionOfSite(s)]
		if op != lp {
			t.Fatalf("site %q moved: %q -> %q", sites.Name(s), op, lp)
		}
	}
	// Find the loaded "queue" partition and compare its config.
	for id, name := range loaded.Names {
		if name != "queue" {
			continue
		}
		got := loaded.Configs[id]
		if got.Read != core.VisibleReads || got.CM != core.CMSuicide ||
			got.LockBits != 7 || got.GranShift != 2 ||
			got.ReaderCM != core.WriterYieldsToReaders || got.HistCap != 1024 {
			t.Fatalf("queue config lost in round trip: %v", got)
		}
	}
}

// TestSaveUsesProvidedConfigs verifies the configs argument (what the
// engine currently runs) wins over the plan's initial configs.
func TestSaveUsesProvidedConfigs(t *testing.T) {
	sites := persistSites(t)
	p, err := ManualPlan(sites, core.DefaultPartConfig(), map[string][]string{
		"tree": {"t.head", "t.node"},
	})
	if err != nil {
		t.Fatal(err)
	}
	current := make([]core.PartConfig, p.NumPartitions())
	for i := range current {
		current[i] = core.DefaultPartConfig()
	}
	current[1].Read = core.VisibleReads
	var buf bytes.Buffer
	if err := p.Save(&buf, sites, current); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"read": "visible"`) {
		t.Fatalf("saved JSON missing tuned config:\n%s", buf.String())
	}
}

// TestLoadErrors covers the rejection paths: bad JSON, bad version,
// unknown site, duplicated site, unknown enum.
func TestLoadErrors(t *testing.T) {
	sites := persistSites(t)
	def := core.DefaultPartConfig()
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "{not json"},
		{"version", `{"version": 99, "partitions": []}`},
		{"unknown-site", `{"version":1,"partitions":[{"name":"x","sites":["nope"],"config":{}}]}`},
		{"dup-site", `{"version":1,"partitions":[
			{"name":"a","sites":["t.head"],"config":{}},
			{"name":"b","sites":["t.head"],"config":{}}]}`},
		{"bad-enum", `{"version":1,"partitions":[{"name":"x","sites":["t.head"],"config":{"read":"psychic"}}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadPlan(strings.NewReader(c.in), sites, def); err == nil {
				t.Fatal("bad input accepted")
			}
		})
	}
}

// TestSavedConfigDefaults checks an empty config object loads as the
// normalized default (hand-edited plans may omit fields).
func TestSavedConfigDefaults(t *testing.T) {
	sites := persistSites(t)
	in := `{"version":1,"partitions":[{"name":"x","sites":["t.head"],"config":{}}]}`
	p, err := LoadPlan(strings.NewReader(in), sites, core.DefaultPartConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := p.Configs[1]
	want := core.DefaultPartConfig()
	if got.Read != want.Read || got.LockBits != want.LockBits || got.CM != want.CM {
		t.Fatalf("defaults not applied: %v", got)
	}
}
