package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"redsoc/internal/cellstore"
	"redsoc/internal/harness"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
	"redsoc/internal/trace"
)

// bench carries one invocation's state.
type bench struct {
	config
	tr   *tracer
	res  *result
	reps []repSample
	cals []float64   // calibration times: one before reps[0], then one after each repetition
	sims []simSample // traced simulations, in order
	// want holds the output digests every repetition must reproduce: the
	// reference's for the default seed, else the first repetition's.
	want map[string]string
}

// repSample is one repetition of the timed phase.
type repSample struct {
	traced           bool
	wall, peakMB     float64
	cpu, allocMB, gc float64
}

// setup runs build at least setupReps times, and again while the set-ups
// so far took less than setupTime, and records the median as setup_s,
// scaled to the reference host speed by the calibration loop run on
// workers goroutines before and after (calib.go).
func (b *bench) setup(workers int, build func() error) error {
	cal0 := calibrate(workers, calibSetupS)
	var ds []float64
	for i := 0; i < max(1, b.setupReps) || sum(ds) < b.setupTime.Seconds(); i++ {
		t := b.tr.begin("setup")
		err := build()
		ds = append(ds, t.stop())
		if err != nil {
			return err
		}
	}
	cal := (cal0 + calibrate(workers, calibSetupS)) / 2
	b.res.set("setup_s", median(ds)*calibRefS/cal)
	b.res.notef("setup: median of %d %.4f s, %.4f s at the reference speed; calibration %.1f ms",
		len(ds), median(ds), median(ds)*calibRefS/cal, 1e3*cal)
	return nil
}

// timed repeats rep until the run's time budget is spent, at least once.
// rep returns the wall time of the work it times, which keeps workers
// goroutines busy. A traced run alternates untraced and traced repetitions,
// at least one of each, so the two can be compared for the tracing
// overhead; the end-to-end figures come from the untraced ones. Before each
// repetition freed memory goes back to the OS and the peak-RSS mark
// restarts, so each repetition's peak is its own. The calibration loop runs
// on as many goroutines before the first repetition and after each one.
func (b *bench) timed(workers int, rep func(traced bool) (float64, error)) error {
	start := time.Now()
	minReps := 1
	if b.traced {
		minReps = 2
	}
	peakOwn := true
	b.cals = append(b.cals, calibrate(workers, 0))
	for i := 0; i < minReps || time.Since(start) < b.seconds; i++ {
		traced := b.traced && i%2 == 1
		b.tr.on, b.tr.run = traced, i+1
		peakOwn = resetPeakRSS() && peakOwn
		p0 := sampleProc()
		wall, err := rep(traced)
		p1 := sampleProc()
		if err != nil {
			return err
		}
		b.reps = append(b.reps, repSample{traced, wall, peakRSSMB(),
			p1.cpu - p0.cpu, float64(p1.allocBytes-p0.allocBytes) / (1 << 20), float64(p1.gcCycles - p0.gcCycles)})
		b.cals = append(b.cals, calibrate(workers, calibShare*wall))
	}
	b.tr.on, b.tr.run = b.traced, 0
	if !peakOwn {
		b.res.notef("peak_rss_mb: /proc/self/clear_refs not writable; peaks cover the whole process")
	}
	return nil
}

// endToEnd records the untraced repetitions' medians; instrs is the
// simulated-instruction total one repetition stands for. ref_wall_s is the
// median of the repetitions' wall times each scaled to the reference host
// by the mean of the two calibration times around it (calib.go).
func (b *bench) endToEnd(instrs int64) {
	var ref, wall, peak, cpu, alloc, gc []float64
	for i, r := range b.reps {
		if !r.traced {
			ref = append(ref, r.wall*calibRefS/((b.cals[i]+b.cals[i+1])/2))
			wall, peak = append(wall, r.wall), append(peak, r.peakMB)
			cpu, alloc, gc = append(cpu, r.cpu), append(alloc, r.allocMB), append(gc, r.gc)
		}
	}
	cal := median(b.cals)
	w := median(ref)
	b.res.set("ref_wall_s", w)
	b.res.set("ref_sim_minstr_per_s", float64(instrs)/w/1e6)
	b.res.set("peak_rss_mb", median(peak))
	b.res.set("host.wall_s", median(wall))
	b.res.set("host.calib_ms", 1e3*cal)
	b.res.set("process.cpu_s", median(cpu))
	b.res.set("process.alloc_mb", median(alloc))
	b.res.set("process.gc_cycles", median(gc))
	b.res.notef("%s seed %d, %d workers: median of %d repetitions %.4f s, %.4f s at the reference speed; each %.4f; calibration median %.1f ms of %d, each %.4f",
		b.workload, b.seed, b.workers, len(wall), median(wall), w, wall, 1e3*cal, len(b.cals), b.cals)
}

// overhead compares the traced and untraced repetitions of a traced run.
func (b *bench) overhead() {
	var on, off []float64
	for _, r := range b.reps {
		if r.traced {
			on = append(on, r.wall)
		} else {
			off = append(off, r.wall)
		}
	}
	b.res.set("bench.span_overhead_pct", 100*(median(on)/median(off)-1))
}

// buildGrid builds the grid programs inside a workload.build span.
func (b *bench) buildGrid() []harness.Benchmark {
	t := b.tr.begin("workload.build")
	defer t.stop()
	return gridPrograms(b.quick, b.seed)
}

// gridShape is what one pass over the grid does: its cells, and the units
// harness.Run reports through OnCell (sweep totals plus cells).
func gridShape(benches []harness.Benchmark) (cells, units int) {
	classes := map[harness.Class]bool{}
	for _, bm := range benches {
		classes[bm.Class] = true
	}
	cores := len(harness.Cores())
	cells = len(benches) * cores
	return cells, cells + len(classes)*cores*len(harness.ThresholdCandidates)
}

// gridRun is one harness.Run of the grid and what OnCell reported.
type gridRun struct {
	grid        *harness.Grid
	err         error
	units, hits int
	wall        float64
}

// runGrid runs the grid once, with the Sec. VI-C sweep and nproc workers,
// inside a span named name. A non-nil st journals every unit; with resume
// set the journal serves them.
func (b *bench) runGrid(name string, benches []harness.Benchmark, st *cellstore.Store, resume bool) gridRun {
	var units, hits atomic.Int64
	opts := harness.Options{
		SweepThreshold: true,
		Workers:        b.workers,
		Journal:        st,
		Resume:         resume,
		OnCell: func(ev harness.CellEvent) {
			units.Add(1)
			if ev.Hit {
				hits.Add(1)
			}
		},
	}
	t := b.tr.begin(name)
	g, err := harness.Run(context.Background(), benches, harness.Cores(), opts)
	wall := t.stop()
	return gridRun{g, err, int(units.Load()), int(hits.Load()), wall}
}

// checkGrid returns how many of the run's cells are wrong: a cell is wrong
// when its digest differs from b.want, or when one of its simulations did
// not commit every instruction of the program. The first grid checked sets
// b.want when no reference applies. A failed run is wrong in every cell.
func (b *bench) checkGrid(r gridRun, cells int) int {
	if r.err != nil {
		b.res.notef("harness.Run: %v", r.err)
		return cells
	}
	d := gridDigests(r.grid)
	if b.want == nil {
		b.want = d
	}
	if b.res.digests == nil {
		b.res.digests = d
	}
	bad := mismatches(d, b.want)
	for _, c := range r.grid.Cells {
		m := c.Cmp
		for _, res := range []*ooo.Result{m.Baseline, m.Redsoc, m.MOS, m.LoadDelay, m.SpecLSQ} {
			if res.Instructions != int64(c.Benchmark.Prog.Len()) {
				bad++
				break
			}
		}
	}
	if bad > 0 {
		b.res.notef("grid: %d of %d cells differ from the expected output", bad, cells)
	}
	return bad
}

// gridInstructions is the committed-instruction total of every simulation
// one grid pass stands for: per (class, core, sweep candidate) a baseline
// and a ReDSOC run of each benchmark of the class, and per cell its five
// policies plus TS's baseline run and, when TS overclocks, its re-run at
// scaled memory latencies (checkGrid verifies every run commits the whole
// program).
func gridInstructions(benches []harness.Benchmark, g *harness.Grid) int64 {
	var n int64
	sweepRuns := int64(2 * len(harness.Cores()) * len(harness.ThresholdCandidates))
	for _, bm := range benches {
		n += sweepRuns * int64(bm.Prog.Len())
	}
	for _, c := range g.Cells {
		runs := int64(6)
		if c.Cmp.TS.PeriodPS < timing.ClockPS {
			runs = 7
		}
		n += runs * int64(c.Benchmark.Prog.Len())
	}
	return n
}

// gridFull times harness.Run over the full grid with the threshold sweep.
func (b *bench) gridFull() error {
	var benches []harness.Benchmark
	if err := b.setup(1, func() error { benches = b.buildGrid(); return nil }); err != nil {
		return err
	}
	if b.ref != nil {
		b.want = b.ref.Grid
	}
	cells, _ := gridShape(benches)
	var last gridRun
	err := b.timed(b.workers, func(bool) (float64, error) {
		last = gridRun{} // let the previous grid go before the next is built
		last = b.runGrid("harness.run", benches, nil, false)
		b.res.count(cells, b.checkGrid(last, cells))
		return last.wall, nil
	})
	if err != nil || last.err != nil {
		return err
	}
	b.endToEnd(gridInstructions(benches, last.grid))
	b.gridModel(last.grid)
	if b.traced {
		b.harnessLayer(last)
		b.replayGrid(benches, last.grid)
		b.decodeLayer(programsOf(benches))
		b.memLayer(programsOf(benches))
		return b.journalPass(benches)
	}
	return nil
}

// journalPass fills a fresh journal with one pass of the grid and serves the
// grid from it once, for the journal layer of a traced grid-full run: the
// write side a campaign run with a journal pays, and the read side a
// resumed one pays.
func (b *bench) journalPass(benches []harness.Benchmark) error {
	dir := filepath.Join(b.out, "journal")
	defer os.RemoveAll(dir)
	if fill, err := b.fillJournal(benches, dir); err != nil || fill.err != nil {
		return err
	}
	r, stats, err := b.resumeGrid("harness.resume", benches, dir)
	if err != nil || r.err != nil {
		return err
	}
	b.resumeLayer(r, stats)
	return b.journalLayer(dir, r.wall)
}

// fillJournal empties dir and journals one harness.Run of the grid into it,
// inside a harness.fill span, checking every cell.
func (b *bench) fillJournal(benches []harness.Benchmark, dir string) (gridRun, error) {
	cells, _ := gridShape(benches)
	if err := os.RemoveAll(dir); err != nil {
		return gridRun{}, fmt.Errorf("perfbench: %w", err)
	}
	st, err := cellstore.Open(dir)
	if err != nil {
		return gridRun{}, err
	}
	fill := b.runGrid("harness.fill", benches, st, false)
	b.res.count(cells, b.checkGrid(fill, cells))
	return fill, st.Close()
}

// resumeGrid serves the grid from the journal in dir inside a span named
// name. Each unit is an operation; it fails when the journal misses it, and
// a served cell fails when it differs from b.want.
func (b *bench) resumeGrid(name string, benches []harness.Benchmark, dir string) (gridRun, cellstore.Stats, error) {
	cells, units := gridShape(benches)
	st, err := cellstore.Open(dir)
	if err != nil {
		return gridRun{}, cellstore.Stats{}, err
	}
	r := b.runGrid(name, benches, st, true)
	stats := st.Stats()
	if err := st.Close(); err != nil {
		return r, stats, err
	}
	bad := units - r.hits
	if bad > 0 {
		b.res.notef("%s: %d of %d units missed the journal", name, bad, units)
	}
	b.res.count(units, bad+b.checkGrid(r, cells))
	return r, stats, nil
}

// gridResume times harness.Run serving the whole grid from a journal that
// set-up fills by running the grid once.
func (b *bench) gridResume() error {
	var benches []harness.Benchmark
	dir := filepath.Join(b.out, "journal")
	defer os.RemoveAll(dir)
	if b.ref != nil {
		b.want = b.ref.Grid
	}
	var fill gridRun
	err := b.setup(b.workers, func() error {
		benches = b.buildGrid()
		var err error
		fill, err = b.fillJournal(benches, dir)
		return err
	})
	if err != nil || fill.err != nil {
		return err
	}
	fill = gridRun{}
	var last gridRun
	var stats cellstore.Stats
	err = b.timed(b.workers, func(bool) (float64, error) {
		last = gridRun{} // let the previous grid go before the next is built
		var err error
		last, stats, err = b.resumeGrid("harness.run", benches, dir)
		return last.wall, err
	})
	if err != nil || last.err != nil {
		return err
	}
	b.endToEnd(gridInstructions(benches, last.grid))
	b.gridModel(last.grid)
	if b.traced {
		b.harnessLayer(last)
		b.resumeLayer(last, stats)
		return b.journalLayer(dir, b.res.values["harness.run_s"])
	}
	return nil
}

// specLong times the five SPEC profiles at long trace length on the Big
// core under baseline and ReDSOC, serially. Set-up passes the generated
// programs through a trace-file round trip, as redsoc-trace run reads them.
func (b *bench) specLong() error {
	dir := filepath.Join(b.out, "trc")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	var gen, progs []*isa.Program
	err := b.setup(1, func() error {
		t := b.tr.begin("workload.build")
		gen = specPrograms(b.specN, b.seed)
		t.stop()
		var err error
		progs, err = b.roundTrip(gen, dir)
		return err
	})
	if err != nil {
		return err
	}
	bad := 0
	for i := range gen {
		if digest(gen[i]) != digest(progs[i]) {
			bad++
		}
	}
	if bad > 0 {
		b.res.notef("spec-long: %d of %d programs changed in the trace round trip", bad, len(gen))
	}
	b.res.count(len(gen), bad)
	if b.ref != nil {
		b.want = b.ref.SpecLong
	}

	big := ooo.BigConfig()
	base, red := big.WithPolicy(ooo.PolicyBaseline), big.WithPolicy(ooo.PolicyRedsoc)
	var results []*ooo.Result
	var instrs int64
	err = b.timed(1, func(traced bool) (float64, error) {
		results, instrs = results[:0], 0
		t0 := time.Now()
		var errs []error
		for _, p := range progs {
			for _, cfg := range []ooo.Config{base, red} {
				r, err := b.simulate(cfg, p, traced)
				results, errs = append(results, r), append(errs, err)
			}
		}
		wall := time.Since(t0).Seconds()
		b.res.count(len(results), b.checkSpec(progs, results, errs))
		for _, r := range results {
			if r != nil {
				instrs += r.Instructions
			}
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	b.endToEnd(instrs)
	cycles, speedup := 0.0, 0.0
	for i := 0; i+1 < len(results); i += 2 {
		if results[i] != nil && results[i+1] != nil {
			cycles += float64(results[i].Cycles + results[i+1].Cycles)
			speedup += 100 * (results[i+1].SpeedupOver(results[i]) - 1)
		}
	}
	b.res.set("model.cycles", cycles)
	mean := speedup / float64(len(progs))
	b.res.set("model.redsoc_speedup_pct.spec_long", mean)
	b.res.notef("model.redsoc_speedup_pct.spec_long %+.4f%% (SPEC/Big mean at %d instructions; paper %+.0f%%, %+.2f pp)",
		mean, b.specN, paperMeans[harness.ClassSPEC]["Big"], mean-paperMeans[harness.ClassSPEC]["Big"])
	if b.traced {
		b.oooLayer(max(1, len(b.sims)/len(results)))
		b.decodeLayer(progs)
		b.memLayer(progs)
	}
	return nil
}

// roundTrip writes each program to a trace file and reads it back, inside a
// trace.rw span, returning the read programs; trace.file_bytes is the
// files' total size.
func (b *bench) roundTrip(progs []*isa.Program, dir string) ([]*isa.Program, error) {
	t := b.tr.begin("trace.rw")
	defer t.stop()
	var out []*isa.Program
	var size int64
	for _, p := range progs {
		path := filepath.Join(dir, p.Name+".trc")
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %w", err)
		}
		werr := trace.Write(f, p)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, fmt.Errorf("perfbench: write %s: %w", path, werr)
		}
		f, err = os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %w", err)
		}
		q, rerr := trace.Read(f)
		fi, serr := f.Stat()
		f.Close()
		if rerr == nil {
			rerr = serr
		}
		if rerr != nil {
			return nil, fmt.Errorf("perfbench: read %s: %w", path, rerr)
		}
		size += fi.Size()
		out = append(out, q)
	}
	b.res.set("trace.file_bytes", float64(size))
	return out, nil
}

// checkSpec returns how many of spec-long's simulations are wrong: failed,
// not committing the whole program, differing from b.want, or (for a
// ReDSOC run) ending in another architectural state than its baseline.
// results alternate baseline and ReDSOC runs of each program.
func (b *bench) checkSpec(progs []*isa.Program, results []*ooo.Result, errs []error) int {
	d := map[string]string{}
	bad := 0
	for i, r := range results {
		p := progs[i/2]
		if errs[i] != nil {
			b.res.notef("spec-long %s: %v", p.Name, errs[i])
			bad++
			continue
		}
		key := p.Name + "/" + r.Config.Policy.String()
		d[key] = runDigest(r)
		if r.Instructions != int64(p.Len()) || (i%2 == 1 && results[i-1] != nil && !r.ArchEqual(results[i-1])) {
			bad++
		}
	}
	if b.want == nil {
		b.want = d
	}
	if b.res.digests == nil {
		b.res.digests = d
	}
	for k, v := range d {
		if b.want[k] != v {
			bad++
		}
	}
	if bad > 0 {
		b.res.notef("spec-long: %d of %d simulations differ from the expected output", bad, len(results))
	}
	return bad
}

// paperMeans are the paper's Fig. 13 class-mean ReDSOC speedups (percent)
// per core, as EXPERIMENTS.md quotes them.
var paperMeans = map[harness.Class]map[string]float64{
	harness.ClassSPEC: {"Big": 12, "Medium": 8, "Small": 4},
	harness.ClassMiB:  {"Big": 23, "Medium": 17, "Small": 9},
	harness.ClassML:   {"Big": 13, "Medium": 9, "Small": 6},
}

// gridModel records the grid's simulated totals and class-mean speedups.
// They are exact, so a change to host time must leave them identical. The
// model is unvalidated against hardware; the paper's class means are its
// only reference, printed beside each value with the difference.
func (b *bench) gridModel(g *harness.Grid) {
	var cycles int64
	for _, c := range g.Cells {
		m := c.Cmp
		cycles += m.Baseline.Cycles + m.Redsoc.Cycles + m.MOS.Cycles + m.LoadDelay.Cycles + m.SpecLSQ.Cycles + m.TS.Cycles
	}
	b.res.set("model.cycles", float64(cycles))
	for _, class := range harness.Classes() {
		for _, core := range harness.Cores() {
			v := g.ClassMeanSpeedup(class, core.Name)
			name := fmt.Sprintf("model.redsoc_speedup_pct.%s.%s", class, core.Name)
			b.res.set(name, v)
			paper := paperMeans[class][core.Name]
			b.res.notef("%s %+.4f%% (paper %+.0f%%, %+.2f pp)", name, v, paper, v-paper)
		}
	}
}

func programsOf(benches []harness.Benchmark) []*isa.Program {
	out := make([]*isa.Program, len(benches))
	for i, bm := range benches {
		out[i] = bm.Prog
	}
	return out
}
