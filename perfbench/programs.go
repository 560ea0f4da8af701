package main

import (
	"redsoc/internal/harness"
	"redsoc/internal/isa"
	"redsoc/internal/workload/mibench"
	"redsoc/internal/workload/ml"
	"redsoc/internal/workload/spec"
)

// seedStride separates the generator seeds of successive benchmark seeds:
// benchmark seed s gives every generator its paper seed plus s*seedStride,
// so seed 0 is the paper's programs and no two seeds share an input.
const seedStride = 1000

// gridSpecN is the SPEC trace length of the Full grid (harness.Benchmarks).
const gridSpecN = 20000

// kernel is one MiBench or ML generator at its evaluation size, with the
// seed harness.Benchmarks(harness.Full) gives it.
type kernel struct {
	class harness.Class
	name  string
	seed  int64
	build func(seed int64) (*isa.Program, map[uint64]uint64)
}

// fullKernels mirrors mibench.Suite and ml.Suite: same generators, sizes and
// seeds, with the seed left open. TestSeedZeroIsPaperGrid pins the mirror.
var fullKernels = []kernel{
	{harness.ClassMiB, "corners", 11, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := mibench.Corners(40, 30, s); return p, e.Mem }},
	{harness.ClassMiB, "strsearch", 12, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := mibench.StrSearch(3000, s); return p, e.Mem }},
	{harness.ClassMiB, "gsm", 13, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := mibench.GSM(600, s); return p, e.Mem }},
	{harness.ClassMiB, "crc", 14, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := mibench.CRC(2500, s); return p, e.Mem }},
	{harness.ClassMiB, "bitcnt", 15, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := mibench.Bitcount(1800, s); return p, e.Mem }},
	{harness.ClassML, "act", 21, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := ml.Act(3000, s); return p, e.Mem }},
	{harness.ClassML, "pool0", 22, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := ml.Pool0(160, 128, s); return p, e.Mem }},
	{harness.ClassML, "conv", 23, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := ml.Conv(96, 64, s); return p, e.Mem }},
	{harness.ClassML, "pool1", 24, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := ml.Pool1(160, 128, s); return p, e.Mem }},
	{harness.ClassML, "softmax", 25, func(s int64) (*isa.Program, map[uint64]uint64) { p, e := ml.Softmax(900, s); return p, e.Mem }},
}

// specPrograms generates the five SPEC profiles at n instructions each, with
// spec.Suite's seeds (100+i) offset by the benchmark seed.
func specPrograms(n int, seed int64) []*isa.Program {
	var out []*isa.Program
	for i, p := range spec.Profiles() {
		out = append(out, spec.Generate(p, n, int64(100+i)+seed*seedStride))
	}
	return out
}

// gridPrograms builds the fifteen grid benchmarks. In quick mode (the
// benchmark's own tests) it is harness.Benchmarks(harness.Quick) and ignores
// the seed; otherwise seed 0 reproduces harness.Benchmarks(harness.Full).
func gridPrograms(quick bool, seed int64) []harness.Benchmark {
	if quick {
		return harness.Benchmarks(harness.Quick)
	}
	var out []harness.Benchmark
	for _, p := range specPrograms(gridSpecN, seed) {
		out = append(out, harness.Benchmark{Class: harness.ClassSPEC, Name: p.Name, Prog: p})
	}
	for _, k := range fullKernels {
		p, want := k.build(k.seed + seed*seedStride)
		out = append(out, harness.Benchmark{Class: k.class, Name: k.name, Prog: p, WantMem: want})
	}
	return out
}
