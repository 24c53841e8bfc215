package partition

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
)

func testPlan(t *testing.T, sites *memory.Sites) *Plan {
	t.Helper()
	p, err := ManualPlan(sites, core.DefaultPartConfig(), map[string][]string{
		"tree":  {"t.head", "t.node"},
		"queue": {"q.meta", "q.node"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	sites := persistSites(t)
	p := testPlan(t, sites)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := p.SaveFile(path, sites, nil); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := LoadPlanFile(path, sites, core.DefaultPartConfig())
	if err != nil {
		t.Fatalf("LoadPlanFile: %v", err)
	}
	if loaded.NumPartitions() != p.NumPartitions() {
		t.Fatalf("partitions %d != %d", loaded.NumPartitions(), p.NumPartitions())
	}
	for s := memory.SiteID(0); int(s) < sites.Count(); s++ {
		if p.Names[p.PartitionOfSite(s)] != loaded.Names[loaded.PartitionOfSite(s)] {
			t.Fatalf("site %q moved across the file round trip", sites.Name(s))
		}
	}
	// No temp file may linger after a successful save.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("SaveFile left its temp file behind")
	}
}

// TestLoadPlanFileRejectsTornWrites truncates the saved file at a sweep
// of offsets: every prefix must be rejected as ErrCorruptPlan (or load
// fully at the complete length) — never half-parse into a partial plan.
func TestLoadPlanFileRejectsTornWrites(t *testing.T) {
	sites := persistSites(t)
	p := testPlan(t, sites)
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := p.SaveFile(path, sites, nil); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.json")
	for cut := 0; cut < len(full); cut += 7 {
		if err := os.WriteFile(torn, full[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		_, err := LoadPlanFile(torn, sites, core.DefaultPartConfig())
		if err == nil {
			t.Fatalf("cut=%d: torn plan file loaded without error", cut)
		}
		if !errors.Is(err, ErrCorruptPlan) {
			t.Fatalf("cut=%d: err = %v, want ErrCorruptPlan", cut, err)
		}
	}
}

func TestLoadPlanFileRejectsBitRot(t *testing.T) {
	sites := persistSites(t)
	p := testPlan(t, sites)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := p.SaveFile(path, sites, nil); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip a character inside the embedded plan JSON (keep the envelope
	// parseable: change a letter, not a quote or brace).
	i := bytes.Index(data, []byte("queue"))
	if i < 0 {
		t.Fatal("marker not found")
	}
	data[i] = 'Q'
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err := LoadPlanFile(path, sites, core.DefaultPartConfig())
	if !errors.Is(err, ErrCorruptPlan) {
		t.Fatalf("err = %v, want ErrCorruptPlan on checksum mismatch", err)
	}
}

// TestLoadPlanFileLegacyFormat: a plain Plan.Save file (no envelope)
// still loads, so existing plan files survive the format change.
func TestLoadPlanFileLegacyFormat(t *testing.T) {
	sites := persistSites(t)
	p := testPlan(t, sites)
	var buf bytes.Buffer
	if err := p.Save(&buf, sites, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlanFile(path, sites, core.DefaultPartConfig())
	if err != nil {
		t.Fatalf("legacy file rejected: %v", err)
	}
	if loaded.NumPartitions() != p.NumPartitions() {
		t.Fatalf("legacy load lost partitions: %d != %d", loaded.NumPartitions(), p.NumPartitions())
	}

	// Enveloped files written before the spin budget became a constant
	// carry a "spinBudget" key: the checksum covers it as written and
	// the decoder ignores it.
	old := []byte(`{"version":1,"partitions":[{"name":"tree","sites":["t.head","t.node"],
		"config":{"read":"visible","lockBits":7,"cm":"karma","spinBudget":16}}]}`)
	sum, err := planChecksum(old)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(savedPlanFile{Version: savedPlanFileVersion, CRC32C: sum, Plan: old})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, env, 0o666); err != nil {
		t.Fatal(err)
	}
	loaded, err = LoadPlanFile(path, sites, core.DefaultPartConfig())
	if err != nil {
		t.Fatalf("plan file with spinBudget rejected: %v", err)
	}
	if got := loaded.Configs[1]; loaded.NumPartitions() != 2 || got.Read != core.VisibleReads ||
		got.LockBits != 7 || got.CM != core.CMKarma {
		t.Fatalf("plan file with spinBudget loaded as %d partitions, config %v", loaded.NumPartitions(), got)
	}
}

func TestLoadPlanFileMissing(t *testing.T) {
	sites := persistSites(t)
	_, err := LoadPlanFile(filepath.Join(t.TempDir(), "nope.json"), sites, core.DefaultPartConfig())
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

// TestSaveFileCleansCrashLeftover: a stale .tmp from a crashed save is
// removed by the next load and never mistaken for the plan.
func TestSaveFileCleansCrashLeftover(t *testing.T) {
	sites := persistSites(t)
	p := testPlan(t, sites)
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := p.SaveFile(path, sites, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("{\"half\":"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlanFile(path, sites, core.DefaultPartConfig()); err != nil {
		t.Fatalf("load with leftover tmp: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("leftover tmp not cleaned up")
	}
}
