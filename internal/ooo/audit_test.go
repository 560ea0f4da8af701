//go:build redsoc_audit

package ooo

import (
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/workload/mibench"
)

// The tests in this file only build under the redsoc_audit tag; they drive
// real kernels through the simulator with the runtime invariant checker
// armed, so any understated estimate, FU over-hold or per-unit completion
// reordering panics mid-run (see audit_on.go).

func TestAuditEnabled(t *testing.T) {
	var s Simulator
	if !s.audit.Enabled() {
		t.Fatal("built with -tags redsoc_audit but the audit layer reports disabled")
	}
}

// TestAuditKernels runs reduced-size MiBench kernels under every config and
// policy. Passing means every issued operation satisfied the audit
// invariants AND the architectural results still check out.
func TestAuditKernels(t *testing.T) {
	kernels := []mibench.Kernel{
		{Name: "bitcnt", Build: func() (*isa.Program, mibench.Expected) { return mibench.Bitcount(300, 15) }},
		{Name: "crc", Build: func() (*isa.Program, mibench.Expected) { return mibench.CRC(400, 14) }},
		{Name: "gsm", Build: func() (*isa.Program, mibench.Expected) { return mibench.GSM(100, 13) }},
		{Name: "corners", Build: func() (*isa.Program, mibench.Expected) { return mibench.Corners(16, 12, 11) }},
	}
	for _, cfg := range []Config{SmallConfig(), MediumConfig(), BigConfig()} {
		for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
			for _, k := range kernels {
				k := k
				c := cfg.WithPolicy(pol)
				t.Run(c.Name+"/"+pol.String()+"/"+k.Name, func(t *testing.T) {
					p, want := k.Build()
					res, err := Run(c, p)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					for addr, v := range want.Mem { //lint:allow simdeterminism order-independent: per-address equality
						if got := res.FinalMem[addr]; got != v {
							t.Errorf("mem[%#x] = %d, want %d", addr, got, v)
						}
					}
				})
			}
		}
	}
}

// TestAuditRequestOrderChecked pins that the audit's select-request check
// fires on out-of-order age positions. issue runs it on every pool's
// requests before choosing between the select fast path (which never builds
// the arbiter's view) and the sorted arbiter, so both paths stay checked.
func TestAuditRequestOrderChecked(t *testing.T) {
	s := mkSim(t, SmallConfig())
	s.audit.onRequests(s, []issueReq{{pos: 1}, {pos: 4}}) // in order: no panic
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order select requests must panic under the audit build")
		}
	}()
	s.audit.onRequests(s, []issueReq{{pos: 4}, {pos: 1}})
}
