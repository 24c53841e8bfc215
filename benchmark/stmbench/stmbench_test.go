package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func init() { logOut = io.Discard }

// The recorder against ground truth: on 1..n every quantile is known in
// closed form, whatever order the samples arrived in.
func TestQuantileMatchesSortedGroundTruth(t *testing.T) {
	const n = 10007
	r := newRng(3)
	samples := make([]int64, n)
	for i := range samples {
		samples[i] = int64(i + 1)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		samples[i], samples[j] = samples[j], samples[i]
	}
	sortInt64(samples)
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := int64(math.Ceil(q * n))
		if got := quantile(samples, q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
	// Ties and tiny sets: always a recorded value, never interpolated.
	if got := quantile([]int64{5, 5, 9}, 0.5); got != 5 {
		t.Errorf("quantile([5 5 9], 0.5) = %d, want 5", got)
	}
}

// spread must give the quartiles Python's statistics.quantiles(n=4)
// gives, because the acceptance rule is stated in those terms.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// = [3.5, 24.0, 160.0]; median 24.
	vals := []float64{512, 1, 64, 2, 4, 256, 8, 16, 128, 32}
	if got, want := spread(vals), (160.0-3.5)/24.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 13], n=4) = [10.0, 11.0, 13.0].
	if got, want := spread([]float64{13, 10, 11}), 3.0/11.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// A closed-loop phase samples its throughput in full slices: every op
// lands in exactly one slice (or after the last full one), and a phase
// shorter than a slice is a single sample.
func TestClosedLoopSlices(t *testing.T) {
	op := func(int) (int, int) { time.Sleep(time.Millisecond); return 3, 0 }
	res := runClosed(2, 2*sliceDur+sliceDur/2, op)
	if len(res.rates) != 2 {
		t.Fatalf("%d slices in 2.5 slice lengths, want 2", len(res.rates))
	}
	inSlices := 0.0
	for i, rate := range res.rates {
		if rate <= 0 {
			t.Errorf("slice %d: rate %v, want > 0", i, rate)
		}
		inSlices += rate * sliceDur.Seconds()
	}
	if got := int(math.Round(inSlices)); got >= res.ops || got%3 != 0 {
		t.Errorf("full slices hold %d of %d ops, want fewer (the half slice holds some) and whole chunks of 3", got, res.ops)
	}
	if short := runClosed(1, sliceDur/10, op); len(short.rates) != 1 || short.rates[0] != short.tput {
		t.Errorf("a phase shorter than a slice gave rates %v, want its one throughput %v", short.rates, short.tput)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	hashes := func(seed uint64) [3]streamHash {
		_, kv := genKV(seed, 1<<12, 1<<12, 0.5)
		_, ms := genMultiset(seed, 1<<12, 1)
		_, au := genTransfers(seed, 1<<12, auditAccounts)
		return [3]streamHash{kv, ms, au}
	}
	a, again, b := hashes(1), hashes(1), hashes(2)
	if a != again {
		t.Errorf("seed 1 generated two different streams: %v and %v", a, again)
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("stream %d: seeds 1 and 2 hash the same (%d)", i, a[i])
		}
		if m := a[i].metric(); m != math.Trunc(m) || m >= 1<<53 {
			t.Errorf("stream %d: hash metric %v is not an exactly representable integer", i, m)
		}
	}
}

func TestGeneratedOpsAreValid(t *testing.T) {
	kv, _ := genKV(7, 1<<12, 100, 0.5)
	gets := 0
	for _, o := range kv {
		if o.isGet() {
			gets++
		} else if o.keys[0] == o.keys[1] || o.delta == 0 {
			t.Fatalf("transfer %+v moves nothing", o)
		}
		for _, k := range o.keys[:o.n] {
			if k >= 100 {
				t.Fatalf("key %d out of range", k)
			}
		}
	}
	if share := float64(gets) / float64(len(kv)); share < 0.45 || share > 0.55 {
		t.Errorf("GET share %.3f, want about 0.5", share)
	}
	for _, x := range func() []xfer { v, _ := genTransfers(7, 1<<12, 256); return v }() {
		if x.from == x.to || x.from >= 256 || x.to >= 256 {
			t.Fatalf("bad transfer %+v", x)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the program's tables must say the same thing.
func TestBenchmarkFileMirrorsTables(t *testing.T) {
	f := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file says %+v, program says {%s %s}", i, f.Workloads[i], w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: file says %+v, program says %+v", i, g, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %q: bad name, unit or bound", d.name)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(f.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := f.PerLayer[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: file says %+v, program says %+v", i, g, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("per-layer %q: bad or repeated name, or bad unit", d.name)
		}
		seen[d.name] = true
	}
}

// A smoke run of every workload in both modes emits exactly the declared
// metrics, with correct outputs and no failed operation.
func TestSmokeRunEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 0.25, trace: trace, smoke: true, outDir: t.TempDir(), clients: 2}
			var out bytes.Buffer
			correct, err := runOne(w, cfg, &out)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			var line struct {
				Correct   bool
				Attempted uint64
				Failed    uint64
				Metrics   map[string]value
			}
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatalf("%s (trace %v): last line is not JSON: %v\n%s", w.name, trace, err, out.String())
			}
			if !correct || !line.Correct || line.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d", w.name, trace, line.Correct, line.Attempted)
			}
			var got, want []string
			for name := range line.Metrics {
				got = append(got, name)
			}
			for _, d := range cfg.defs() {
				want = append(want, d.name)
				if v := line.Metrics[d.name]; v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s (trace %v): %s = %v %q, want a finite value in %q", w.name, trace, d.name, v.Value, v.Unit, d.unit)
				}
				if !trace && line.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, line.Metrics[d.name].Value)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s (trace %v): emitted %v, declared %v", w.name, trace, got, want)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	doc := func(tput, tputSpread, p50 float64, failed uint64) document {
		return document{Benchmark: "stmbench", Workloads: []docWorkload{{
			Name: "kv-mixed", Correct: true, Attempted: 100, Failed: failed,
			EndToEnd: map[string]docMetric{
				"tput_ops_s": {tput, "1/s", tputSpread, "higher", 0.10},
				"p50_us":     {p50, "us", 0.01, "lower", 0.10},
				"setup_s":    {1, "s", 0.01, "lower", 0.25},
			},
		}}}
	}
	write := func(d document) string {
		path := filepath.Join(t.TempDir(), "run.json")
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(doc(1000, 0.01, 20, 0))
	cases := []struct {
		name      string
		b         document
		regressed bool
		mentions  string
	}{
		{"same", doc(1000, 0.01, 20, 0), false, "PASS"},
		{"faster", doc(1500, 0.01, 10, 0), false, "PASS"},
		{"within bound", doc(950, 0.01, 21, 0), false, "PASS"},
		{"throughput down", doc(850, 0.01, 20, 0), true, "REGRESSED"},
		{"latency up", doc(1000, 0.01, 23, 0), true, "REGRESSED"},
		{"too noisy to tell", doc(850, 0.30, 20, 0), false, "UNRESOLVED"},
		{"new failures", doc(1000, 0.01, 20, 3), true, "failed ops"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compareFiles(base, write(c.b), &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.mentions) {
			t.Errorf("%s: regressed=%v, want %v and a mention of %q in:\n%s", c.name, regressed, c.regressed, c.mentions, out.String())
		}
	}
}
