// Command perfbench is the repository benchmark. It times the paper's full
// evaluation grid (grid-full), long SPEC traces on the Big core (spec-long)
// and the same grid served from a cell journal (grid-resume) end to end,
// checks every result, and with -trace 1 reports per-layer figures from
// spans it records around its own calls into each package. Run it from the
// repository root:
//
//	bash perfbench/run.sh -workload grid-full -seed 0 -seconds 45 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// metric by name with its unit. README.md in this directory defines the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // length of the timed phase
	traced   bool
	out      string // journals, trace files, spans and profiles go here
	workers  int    // harness campaign workers

	quick     bool          // harness.Quick grid; the benchmark's own tests set it
	specN     int           // spec-long trace length
	setupReps int           // minimum set-up repetitions; setup_s is their median
	setupTime time.Duration // repeat set-up until it has taken this long
	ref       *reference
}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in output order.
var endToEnd = []metricSpec{
	{"ref_wall_s", "s"},
	{"ref_sim_minstr_per_s", "Minstr/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in output order. Every workload
// reports all of them; a layer the workload does not reach reads 0.
var perLayer = []metricSpec{
	{"workload.build_ms", "ms"},
	{"trace.rw_ms", "ms"},
	{"trace.file_bytes", "bytes"},
	{"trace.decode_ms", "ms"},
	{"trace.decode_ns_per_instr", "ns/instr"},
	{"ooo.new_us.p50", "us"},
	{"ooo.run_ms.p50", "ms"},
	{"ooo.run_ms.tail", "ms"},
	{"ooo.run_n", "count"},
	{"ooo.ns_per_cycle", "ns/cycle"},
	{"ooo.ns_per_instr", "ns/instr"},
	{"ooo.alloc_kb_per_run", "KB/run"},
	{"ooo.allocs_per_run", "allocs/run"},
	{"ooo.cycles", "cycles"},
	{"ooo.instructions", "instrs"},
	{"ooo.idle_cycle_frac", "ratio"},
	{"mem.access_ns", "ns"},
	{"mem.accesses", "count"},
	{"mem.l1_miss_rate", "ratio"},
	{"baseline.run_ts_ms.p50", "ms"},
	{"harness.run_s", "s"},
	{"harness.units", "count"},
	{"harness.journal_hits", "count"},
	{"harness.journal_misses", "count"},
	{"harness.resume_self_s", "s"},
	{"campaign.busy_s", "s"},
	{"campaign.efficiency", "ratio"},
	{"cellstore.get_us.p50", "us"},
	{"cellstore.get_us.tail", "us"},
	{"cellstore.get_n", "count"},
	{"cellstore.put_us.p50", "us"},
	{"cellstore.bytes", "bytes"},
	{"cellstore.hits", "count"},
	{"cellstore.misses", "count"},
	{"cellstore.corrupt", "count"},
	{"host.wall_s", "s"},
	{"host.calib_ms", "ms"},
	{"process.cpu_s", "s"},
	{"process.alloc_mb", "MB"},
	{"process.gc_cycles", "count"},
	{"bench.span_overhead_pct", "%"},
	{"model.cycles", "cycles"},
	{"model.redsoc_speedup_pct.SPEC.Big", "%"},
	{"model.redsoc_speedup_pct.SPEC.Medium", "%"},
	{"model.redsoc_speedup_pct.SPEC.Small", "%"},
	{"model.redsoc_speedup_pct.MiBench.Big", "%"},
	{"model.redsoc_speedup_pct.MiBench.Medium", "%"},
	{"model.redsoc_speedup_pct.MiBench.Small", "%"},
	{"model.redsoc_speedup_pct.ML.Big", "%"},
	{"model.redsoc_speedup_pct.ML.Medium", "%"},
	{"model.redsoc_speedup_pct.ML.Small", "%"},
	{"model.redsoc_speedup_pct.spec_long", "%"},
}

// result is what one invocation measured.
type result struct {
	attempted, failed int
	values            map[string]float64 // metric name → value
	notes             []string           // human-readable lines printed before the JSON
	digests           map[string]string  // first repetition's output digests (for -record)
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds attempted operations and the failed ones among them.
func (r *result) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += min(failed, attempted)
}

// run executes one workload. A traced run also writes a CPU profile of the
// whole run and the spans it kept.
func run(c config) (*result, error) {
	b := &bench{config: c, tr: newTracer(c.traced), res: &result{values: map[string]float64{}}}
	workload, ok := map[string]func() error{
		"grid-full":   b.gridFull,
		"spec-long":   b.specLong,
		"grid-resume": b.gridResume,
	}[c.workload]
	if !ok {
		return nil, fmt.Errorf("perfbench: unknown workload %q (grid-full, spec-long, grid-resume)", c.workload)
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	if !c.traced {
		if err := workload(); err != nil {
			return nil, err
		}
		return b.res, nil
	}
	name := fmt.Sprintf("%s-seed%d", c.workload, c.seed)
	prof := filepath.Join(c.out, name+".cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	err = workload()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("perfbench: cpu profile: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	b.res.set("workload.build_ms", 1e3*median(b.tr.durations("workload.build")))
	b.res.set("trace.rw_ms", 1e3*median(b.tr.durations("trace.rw")))
	b.overhead()
	spans := filepath.Join(c.out, name+"-spans.json")
	if err := b.tr.write(spans); err != nil {
		return nil, fmt.Errorf("perfbench: spans: %w", err)
	}
	b.res.notef("cpu profile: %s", prof)
	b.res.notef("spans: %s (%d)", spans, len(b.tr.spans))
	return b.res, nil
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable lines, then the result line.
func (r *result) print(w io.Writer, c config) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	out, shown := map[string]jsonMetric{}, endToEnd
	if c.traced {
		shown = perLayer
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if v, ok := r.values[m.name]; ok {
			fmt.Fprintf(w, "%-44s %16.6f %s\n", m.name, v, m.unit)
		}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-44s %16.6f %s (%d of %d operations)\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	for _, m := range shown {
		out[m.name] = jsonMetric{r.values[m.name], m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	c := config{workers: runtime.NumCPU(), specN: 200000, setupReps: 3, setupTime: 2 * time.Second}
	flag.StringVar(&c.workload, "workload", "", "grid-full, spec-long or grid-resume")
	flag.Int64Var(&c.seed, "seed", 0, "input seed; 0 reproduces the paper's programs")
	seconds := flag.Float64("seconds", 45, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&c.out, "out", ".bench_build/perfbench", "directory for journals, trace files, spans and profiles")
	recordTo := flag.String("record", "", "record the default seed's reference digests to this file and exit")
	flag.Parse()
	c.seconds = time.Duration(*seconds * float64(time.Second))
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	c.traced = *trace == 1

	if *recordTo != "" {
		if err := record(*recordTo, c); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if c.seed == ref.Seed {
		c.ref = ref
	}
	res, err := run(c)
	if err == nil {
		err = res.print(os.Stdout, c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
