package ooo_test

import (
	"testing"

	"redsoc/internal/core"
	"redsoc/internal/difftest"
	"redsoc/internal/ooo"
)

// TestMemDepMatchesStoreQueueScan pins the decode-driven memory dependence
// to the store-queue scan it replaced, at every load dispatch, over the
// difftest seed corpus: under each of the engine's five policies plus
// ReDSOC's Illustrative design, on the Small core (whose 40-entry ROB wraps
// often) and the Big one (more stores in flight). Built with -tags
// redsoc_audit, the same sweep also checks every readiness-cache hit against
// a fresh trackedReady (the audit's onReadyHit): only speculative-LSQ loads
// can hold a cached answer that a store's issue changes.
func TestMemDepMatchesStoreQueueScan(t *testing.T) {
	illustrative := ooo.SmallConfig().WithPolicy(ooo.PolicyRedsoc)
	illustrative.Redsoc.Design = core.Illustrative
	cfgs := []ooo.Config{illustrative}
	for _, name := range ooo.PolicyNames() {
		p, err := ooo.ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, ooo.SmallConfig().WithPolicy(p), ooo.BigConfig().WithPolicy(p))
	}
	loads := 0
	for i := 0; i < difftest.CorpusSize; i++ {
		seed, prog := difftest.CorpusProgram(i)
		for _, cfg := range cfgs {
			n, err := ooo.CheckMemDeps(cfg, prog)
			if err != nil {
				t.Fatalf("seed %d, %s/%s: %v", seed, cfg.Name, cfg.Policy, err)
			}
			loads += n
		}
	}
	if loads == 0 {
		t.Fatal("the corpus dispatched no loads: the check tested nothing")
	}
	t.Logf("%d load dispatches checked", loads)
}
