package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"redsoc/internal/harness"
	"redsoc/internal/workload/spec"
)

// workloads are the workloads the program runs; benchmarked are the ones
// BENCHMARK.json names (grid-resume is left out of it, see README.md).
var (
	workloads   = []string{"grid-full", "spec-long", "grid-resume"}
	benchmarked = []string{"grid-full", "spec-long"}
)

// tiny is a configuration small enough for tests: the quick grid, 2k-instruction
// SPEC traces, one set-up and the minimum number of repetitions.
func tiny(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, traced: traced, out: t.TempDir(), workers: runtime.NumCPU(),
		quick: true, specN: 2000, setupReps: 1}
}

func mustRun(t *testing.T, c config) *result {
	t.Helper()
	res, err := run(c)
	if err != nil {
		t.Fatalf("%s: %v", c.workload, err)
	}
	return res
}

// benchmarkJSON is the part of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsMatchBenchmarkJSON pins the metric lists the program prints to
// the ones BENCHMARK.json declares, in order and with their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(kind string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s %s, BENCHMARK.json %s %s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(benchmarked, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, benchmarked)
	}
}

// resultLine parses the last line print writes.
func resultLine(t *testing.T, res *result, c config) map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := res.print(&buf, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return line
}

// reached lists, per workload, per-layer metrics that must be non-zero
// because the workload exercises their layer.
var reached = map[string][]string{
	"grid-full": {"workload.build_ms", "trace.decode_ms", "ooo.new_us.p50", "ooo.run_ms.tail", "ooo.run_n", "ooo.ns_per_cycle",
		"ooo.idle_cycle_frac", "mem.access_ns", "baseline.run_ts_ms.p50", "harness.run_s", "harness.units",
		"harness.journal_hits", "harness.resume_self_s", "cellstore.get_us.p50", "cellstore.get_n", "cellstore.put_us.p50",
		"cellstore.bytes", "cellstore.hits", "campaign.busy_s", "campaign.efficiency", "process.cpu_s", "model.cycles"},
	"spec-long": {"workload.build_ms", "trace.rw_ms", "trace.file_bytes", "trace.decode_ns_per_instr", "ooo.run_ms.p50",
		"ooo.alloc_kb_per_run", "ooo.cycles", "ooo.instructions", "mem.accesses", "mem.l1_miss_rate", "host.wall_s",
		"host.calib_ms", "process.cpu_s",
		"model.cycles", "model.redsoc_speedup_pct.spec_long"},
	"grid-resume": {"workload.build_ms", "harness.run_s", "harness.units", "harness.journal_hits", "harness.resume_self_s",
		"cellstore.get_us.p50", "cellstore.get_n", "cellstore.put_us.p50", "cellstore.bytes", "cellstore.hits",
		"process.cpu_s", "model.cycles"},
}

// TestWorkloadsTiny runs every workload end to end, untraced and traced, and
// checks that nothing fails, every named metric is printed, the traced run
// reports the layers the workload reaches, and the exact model figures are
// the same in both runs.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			plain := mustRun(t, tiny(t, w, false))
			traced := mustRun(t, tiny(t, w, true))
			for _, r := range []*result{plain, traced} {
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("%d of %d operations failed:\n%s", r.failed, r.attempted, strings.Join(r.notes, "\n"))
				}
			}
			for _, m := range endToEnd {
				if plain.values[m.name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, plain.values[m.name])
				}
			}
			for _, name := range reached[w] {
				if traced.values[name] == 0 {
					t.Errorf("per-layer %s = 0 on %s", name, w)
				}
			}
			for name, v := range plain.values {
				if strings.HasPrefix(name, "model.") && traced.values[name] != v {
					t.Errorf("%s: untraced %v, traced %v", name, v, traced.values[name])
				}
			}
			for _, tc := range []struct {
				c     config
				r     *result
				names []metricSpec
			}{{tiny(t, w, false), plain, endToEnd}, {tiny(t, w, true), traced, perLayer}} {
				line := resultLine(t, tc.r, tc.c)
				if len(line) != 4 || string(line["correct"]) != "true" {
					t.Fatalf("result line keys %v, correct %s", len(line), line["correct"])
				}
				var metrics map[string]jsonMetric
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				for _, m := range tc.names {
					if got, ok := metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("result line lacks %s (%s)", m.name, m.unit)
					}
				}
				if len(metrics) != len(tc.names) {
					t.Errorf("result line has %d metrics, want %d", len(metrics), len(tc.names))
				}
			}
		})
	}
}

// TestTamperedReferenceFails checks the output check end to end: a run
// against its own digests passes, and one wrong digest fails exactly that
// operation on every workload.
func TestTamperedReferenceFails(t *testing.T) {
	grid := mustRun(t, tiny(t, "grid-full", false)).digests
	specLong := mustRun(t, tiny(t, "spec-long", false)).digests
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			ref := &reference{Grid: copyMap(grid), SpecLong: copyMap(specLong)}
			c := tiny(t, w, false)
			c.ref = ref
			if res := mustRun(t, c); res.failed != 0 {
				t.Fatalf("untampered reference: %d of %d failed", res.failed, res.attempted)
			}
			key := "SPEC/xalanc/Big"
			if w == "spec-long" {
				key = "xalanc/redsoc"
			}
			m := ref.Grid
			if w == "spec-long" {
				m = ref.SpecLong
			}
			if _, ok := m[key]; !ok {
				t.Fatalf("no digest %s", key)
			}
			m[key] = strings.Repeat("0", 64)
			res := mustRun(t, c)
			if res.failed == 0 {
				t.Fatalf("tampered digest %s: failed %d of %d, want > 0", key, res.failed, res.attempted)
			}
		})
	}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestGridResumeServesEverything checks that the journal serves every unit,
// on grid-resume and in the journal pass of a traced grid-full run.
func TestGridResumeServesEverything(t *testing.T) {
	for _, w := range []string{"grid-resume", "grid-full"} {
		res := mustRun(t, tiny(t, w, true))
		if misses := res.values["harness.journal_misses"]; misses != 0 {
			t.Fatalf("%s: harness.journal_misses = %v, want 0", w, misses)
		}
		if hits, units := res.values["harness.journal_hits"], res.values["harness.units"]; hits != units || hits != 81 {
			t.Fatalf("%s: harness.journal_hits %v of %v units, want all 81", w, hits, units)
		}
		if res.values["cellstore.misses"] != 0 || res.values["cellstore.corrupt"] != 0 {
			t.Fatalf("%s: cellstore misses %v, corrupt %v", w, res.values["cellstore.misses"], res.values["cellstore.corrupt"])
		}
	}
}

// TestSeedZeroIsPaperGrid pins the seeded generators to the paper's inputs
// at seed 0 and checks that another seed changes every input.
func TestSeedZeroIsPaperGrid(t *testing.T) {
	paper := harness.Benchmarks(harness.Full)
	seed0, seed1 := gridPrograms(false, 0), gridPrograms(false, 1)
	if len(seed0) != len(paper) {
		t.Fatalf("%d benchmarks, paper grid has %d", len(seed0), len(paper))
	}
	for i := range paper {
		if string(harness.WorkloadDigest(seed0[i])) != string(harness.WorkloadDigest(paper[i])) {
			t.Errorf("seed 0 %s/%s differs from harness.Benchmarks(Full)", seed0[i].Class, seed0[i].Name)
		}
		if string(harness.WorkloadDigest(seed1[i])) == string(harness.WorkloadDigest(paper[i])) {
			t.Errorf("seed 1 %s is the paper's input", seed1[i].Name)
		}
		if seed1[i].Prog.Len() == 0 || seed1[i].Name != paper[i].Name {
			t.Errorf("seed 1 benchmark %d: %s with %d instructions", i, seed1[i].Name, seed1[i].Prog.Len())
		}
	}
	suite := spec.Suite(5000)
	for i, p := range specPrograms(5000, 0) {
		if digest(p) != digest(suite[i]) {
			t.Errorf("seed 0 spec-long %s differs from spec.Suite", p.Name)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, l := tail(xs); l != 90 || v != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, l)
	}
	if v, l := tail(xs[:15]); l != 50 || v != 8 {
		t.Errorf("tail of 1..15 = %v at p%v, want the median 8 at p50", v, l)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},
		{ID: 4, Parent: 3, Start: 35, End: 45},
	}}
	tr.fillSelf()
	for i, want := range []int64{60, 30, 10, 10} {
		if got := tr.spans[i].SelfNS; got != want {
			t.Errorf("span %d self %d, want %d", i+1, got, want)
		}
	}
}
