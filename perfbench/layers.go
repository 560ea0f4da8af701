package main

import (
	"os"
	"path/filepath"
	"runtime"

	"redsoc/internal/baseline"
	"redsoc/internal/cellstore"
	"redsoc/internal/harness"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/ooo"
	"redsoc/internal/trace"
)

// simSample is one traced simulation.
type simSample struct {
	newS, runS                  float64
	allocBytes, mallocs         uint64
	cycles, instrs, issueCycles int64
}

// simulate runs one simulation. Untraced it is ooo.Run; traced it is
// ooo.New and Simulator.Run in spans of their own, with the allocations of
// both counted. ooo.Run hands the cache hierarchy back to mem's pool after
// the run and New takes it from there; a bare New/Run pair cannot hand it
// back, so the traced path puts a hierarchy in the pool beforehand, outside
// the spans, and ooo.New finds it there as it would under ooo.Run.
func (b *bench) simulate(cfg ooo.Config, p *isa.Program, traced bool) (*ooo.Result, error) {
	if !traced {
		return ooo.Run(cfg, p)
	}
	mem.NewHierarchy(cfg.Mem).Release()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := b.tr.begin("ooo.new")
	s, err := ooo.New(cfg, p)
	newS := t.stop()
	if err != nil {
		return nil, err
	}
	t = b.tr.begin("ooo.run")
	r, err := s.Run()
	runS := t.stop()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	b.sims = append(b.sims, simSample{newS, runS, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs,
		r.Cycles, r.Instructions, r.IssueCycles})
	return r, nil
}

// oooLayer summarizes the traced simulations, which made passes passes over
// the workload's simulations: times and allocations per simulation, and the
// simulated totals of one pass.
func (b *bench) oooLayer(passes int) {
	var news, runs []float64
	var runTotal, alloc, mallocs, cycles, instrs, issue float64
	for _, s := range b.sims {
		news, runs = append(news, s.newS*1e6), append(runs, s.runS*1e3)
		runTotal += s.runS
		alloc, mallocs = alloc+float64(s.allocBytes), mallocs+float64(s.mallocs)
		cycles, instrs, issue = cycles+float64(s.cycles), instrs+float64(s.instrs), issue+float64(s.issueCycles)
	}
	n := float64(len(b.sims))
	if n == 0 {
		return
	}
	tailV, level := tail(runs)
	r := b.res
	r.set("ooo.new_us.p50", median(news))
	r.set("ooo.run_ms.p50", median(runs))
	r.set("ooo.run_ms.tail", tailV)
	r.set("ooo.run_n", n)
	r.set("ooo.ns_per_cycle", runTotal*1e9/cycles)
	r.set("ooo.ns_per_instr", runTotal*1e9/instrs)
	r.set("ooo.alloc_kb_per_run", alloc/1024/n)
	r.set("ooo.allocs_per_run", mallocs/n)
	r.set("ooo.cycles", cycles/float64(passes))
	r.set("ooo.instructions", instrs/float64(passes))
	r.set("ooo.idle_cycle_frac", 1-issue/cycles)
	r.notef("ooo.run_ms.tail is p%g of %d simulations", level, len(runs))
}

// harnessLayer records the traced repetitions' harness.Run spans and the
// units the last one reported.
func (b *bench) harnessLayer(last gridRun) {
	b.res.set("harness.run_s", median(b.tr.durations("harness.run")))
	b.res.set("harness.units", float64(last.units))
}

// resumeLayer records what serving the grid from a journal reported: the
// units the journal served and missed, and the store's counters.
func (b *bench) resumeLayer(r gridRun, stats cellstore.Stats) {
	b.res.set("harness.journal_hits", float64(r.hits))
	b.res.set("harness.journal_misses", float64(r.units-r.hits))
	b.res.set("cellstore.hits", float64(stats.Hits))
	b.res.set("cellstore.misses", float64(stats.Misses))
	b.res.set("cellstore.corrupt", float64(stats.Corrupt))
}

// replayGrid replays every simulation of one grid pass serially, in
// harness.Run's order, through ooo.New/Run and baseline.RunTS: the sweep's
// baseline and ReDSOC runs per (class, core, candidate), then each cell's
// five policies at its chosen threshold and TS. Their summed time is the
// campaign's busy time. The replay must choose the grid's thresholds and
// reproduce its cycle counts; each replayed simulation is an operation.
func (b *bench) replayGrid(benches []harness.Benchmark, g *harness.Grid) {
	t := b.tr.begin("replay")
	defer t.stop()
	b.sims = b.sims[:0]
	cores := map[string]ooo.Config{}
	for _, c := range harness.Cores() {
		cores[c.Name] = c
	}
	attempted, bad := 0, 0
	run := func(cfg ooo.Config, p *isa.Program) *ooo.Result {
		attempted++
		r, err := b.simulate(cfg, p, true)
		if err != nil {
			bad++
			b.res.notef("replay %s/%s: %v", p.Name, cfg.Name, err)
		}
		return r
	}
	for _, class := range harness.Classes() {
		var members []harness.Benchmark
		for _, bm := range benches {
			if bm.Class == class {
				members = append(members, bm)
			}
		}
		if len(members) == 0 {
			continue
		}
		for _, core := range harness.Cores() {
			best, bestGain := harness.ThresholdCandidates[0], -1.0
			for _, th := range harness.ThresholdCandidates {
				total := 0.0
				for _, bm := range members {
					base := run(core.WithPolicy(ooo.PolicyBaseline), bm.Prog)
					rc := core.WithPolicy(ooo.PolicyRedsoc)
					rc.Redsoc.ThresholdTicks = th
					if red := run(rc, bm.Prog); base != nil && red != nil {
						total += red.SpeedupOver(base)
					}
				}
				if total > bestGain {
					best, bestGain = th, total
				}
			}
			if best != g.ChosenThreshold[class][core.Name] {
				bad++
				b.res.notef("replay %s/%s: threshold %d, grid chose %d", class, core.Name, best, g.ChosenThreshold[class][core.Name])
			}
		}
	}
	var tsTimes []float64
	for _, c := range g.Cells {
		cfg, p, m := cores[c.Core], c.Benchmark.Prog, c.Cmp
		rc := cfg.WithPolicy(ooo.PolicyRedsoc)
		rc.Redsoc.ThresholdTicks = c.Threshold
		for i, want := range []*ooo.Result{m.Baseline, m.Redsoc, m.MOS, m.LoadDelay, m.SpecLSQ} {
			pcfg := cfg.WithPolicy(want.Config.Policy)
			if i == 1 {
				pcfg = rc
			}
			if r := run(pcfg, p); r != nil && r.Cycles != want.Cycles {
				bad++
				b.res.notef("replay %s: %s ran %d cycles, grid has %d", cellKey(c), want.Config.Policy, r.Cycles, want.Cycles)
			}
		}
		attempted++
		tt := b.tr.begin("baseline.run_ts")
		ts, err := baseline.RunTS(cfg, p)
		tsTimes = append(tsTimes, tt.stop())
		if err != nil || ts != m.TS {
			bad++
			b.res.notef("replay %s: TS %+v (%v), grid has %+v", cellKey(c), ts, err, m.TS)
		}
	}
	b.res.count(attempted, bad)
	b.oooLayer(1)
	busy := sum(tsTimes)
	for _, s := range b.sims {
		busy += s.newS + s.runS
	}
	b.res.set("baseline.run_ts_ms.p50", 1e3*median(tsTimes))
	b.res.set("campaign.busy_s", busy)
	b.res.set("campaign.efficiency", busy/(float64(b.workers)*b.res.values["harness.run_s"]))
}

// decodeLayer times trace.Decode of each program, the work DecodeCached
// does once per program and process inside ooo.New. It takes the median of
// three passes.
func (b *bench) decodeLayer(progs []*isa.Program) {
	var passes []float64
	instrs := 0
	for i := 0; i < 3; i++ {
		total := 0.0
		for _, p := range progs {
			t := b.tr.begin("trace.decode")
			trace.Decode(p)
			total += t.stop()
			instrs += p.Len()
		}
		passes = append(passes, total)
	}
	d := median(passes)
	b.res.set("trace.decode_ms", d*1e3)
	b.res.set("trace.decode_ns_per_instr", d*1e9/float64(instrs/3))
}

// memLayer replays the effective address of every load and store of each
// program, in program order, through a cold Big-core hierarchy
// (mem.NewHierarchy(ooo.BigConfig().Mem).Access), one hierarchy per
// program. It takes the median of three passes.
func (b *bench) memLayer(progs []*isa.Program) {
	var addrs [][]uint64
	for _, p := range progs {
		var a []uint64
		for i := range p.Instrs {
			if in := &p.Instrs[i]; in.Op.IsMem() {
				a = append(a, in.Addr)
			}
		}
		addrs = append(addrs, a)
	}
	cfg := ooo.BigConfig().Mem
	var passes []float64
	var stats mem.Stats
	for i := 0; i < 3; i++ {
		stats = mem.Stats{}
		total := 0.0
		for _, a := range addrs {
			h := mem.NewHierarchy(cfg)
			t := b.tr.begin("mem.access")
			for _, addr := range a {
				h.Access(addr)
			}
			total += t.stop()
			s := h.Stats()
			stats.Accesses += s.Accesses
			stats.L1Hits += s.L1Hits
			h.Release()
		}
		passes = append(passes, total)
	}
	b.res.set("mem.access_ns", median(passes)*1e9/float64(stats.Accesses))
	b.res.set("mem.accesses", float64(stats.Accesses))
	b.res.set("mem.l1_miss_rate", 1-float64(stats.L1Hits)/float64(stats.Accesses))
}

// journalLayer times Store.Get of every key the journal's manifest records
// as done, and Store.Put of the same payloads into a fresh journal — the
// read side a resumed grid pays and the write side the fill pays. resumeS
// is the resumed harness.Run's time, of which the gets are a part.
func (b *bench) journalLayer(dir string, resumeS float64) error {
	recs, err := cellstore.ReadManifest(dir)
	if err != nil {
		return err
	}
	st, err := cellstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	putDir := filepath.Join(b.out, "journal-put")
	defer os.RemoveAll(putDir)
	if err := os.RemoveAll(putDir); err != nil {
		return err
	}
	put, err := cellstore.Open(putDir)
	if err != nil {
		return err
	}
	defer put.Close()
	seen := map[cellstore.Key]bool{}
	var gets, puts []float64
	var bytes int64
	for _, r := range recs {
		if r.Op != "done" || seen[r.Key] {
			continue
		}
		seen[r.Key] = true
		t := b.tr.begin("cellstore.get")
		data, ok := st.Get(r.Key)
		gets = append(gets, 1e6*t.stop())
		if !ok {
			b.res.count(1, 1)
			continue
		}
		b.res.count(1, 0)
		bytes += int64(len(data))
		t = b.tr.begin("cellstore.put")
		err := put.Put(r.Key, data)
		puts = append(puts, 1e6*t.stop())
		if err != nil {
			return err
		}
	}
	cellFiles, _ := filepath.Glob(filepath.Join(dir, "*.cell"))
	var onDisk int64
	for _, f := range cellFiles {
		if fi, err := os.Stat(f); err == nil {
			onDisk += fi.Size()
		}
	}
	tailV, level := tail(gets)
	b.res.set("cellstore.get_us.p50", median(gets))
	b.res.set("cellstore.get_us.tail", tailV)
	b.res.set("cellstore.get_n", float64(len(gets)))
	b.res.set("cellstore.put_us.p50", median(puts))
	b.res.set("cellstore.bytes", float64(onDisk))
	b.res.set("harness.resume_self_s", resumeS-sum(gets)/1e6)
	b.res.notef("cellstore.get_us.tail is p%g of %d gets; payloads %d bytes, value files %d bytes", level, len(gets), bytes, onDisk)
	return nil
}
