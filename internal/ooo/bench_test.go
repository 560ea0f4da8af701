package ooo

import (
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/trace"
	"redsoc/internal/workload/spec"
)

// specLongN is the trace length of the long SPEC programs: the perfbench
// spec-long workload's size, long enough that per-run setup is noise.
const specLongN = 200_000

// BenchmarkEngineSpecLong times the engine alone on the five SPEC profiles at
// 200k instructions (spec.Suite's seeds), each simulated on the Big core under
// baseline and ReDSOC scheduling — the perfbench spec-long workload without
// its trace round trip and layer tracing, so an engine change can be sized
// with `go test -bench EngineSpecLong ./internal/ooo`. It reports simulated
// instructions per second and allocations per iteration.
func BenchmarkEngineSpecLong(b *testing.B) {
	var progs []*isa.Program
	for i, p := range spec.Profiles() {
		prog := spec.Generate(p, specLongN, int64(100+i))
		trace.DecodeCached(prog) // decode once, outside the timed loop
		progs = append(progs, prog)
	}
	big := BigConfig()
	cfgs := []Config{big.WithPolicy(PolicyBaseline), big.WithPolicy(PolicyRedsoc)}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for n := 0; n < b.N; n++ {
		for _, p := range progs {
			for _, cfg := range cfgs {
				r, err := Run(cfg, p)
				if err != nil {
					b.Fatal(err)
				}
				instrs += r.Instructions
			}
		}
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
