package harness

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"redsoc/internal/campaign"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
)

// simCounter wraps ooo.Run and counts its calls per key. panicOnce makes the
// first call of each listed key panic instead of simulating.
type simCounter struct {
	mu        sync.Mutex
	calls     map[simKey]int
	panicOnce map[simKey]bool
}

func (c *simCounter) memo() *simMemo {
	c.calls = map[simKey]int{}
	return newSimMemo(func(cfg ooo.Config, p *isa.Program) (*ooo.Result, error) {
		k := simKey{p, cfg}
		c.mu.Lock()
		c.calls[k]++
		first := c.calls[k] == 1
		c.mu.Unlock()
		if first && c.panicOnce[k] {
			panic(fmt.Sprintf("injected panic: %s on %s/%s", p.Name, cfg.Name, cfg.Policy))
		}
		return ooo.Run(cfg, p)
	})
}

func (c *simCounter) total() int {
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

// TestGridSimulatesEachRunOnce runs the whole quick-scale grid with the
// threshold sweep. Per (benchmark, core) it needs nine distinct simulations:
// one baseline, ReDSOC at each of the four candidates, MOS, loaddelay,
// speclsq, and TS's re-run at scaled memory latencies. Before the memo the
// grid made fifteen: a baseline in each sweep unit, in the cell and in TS,
// and the chosen ReDSOC run again in the cell. Every key goes to ooo.Run once.
func TestGridSimulatesEachRunOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale grid: skipped in -short mode")
	}
	bs, cores := Benchmarks(Quick), Cores()
	var c simCounter
	g, err := run(context.Background(), bs, cores, Options{SweepThreshold: true, Workers: 2}, c.memo())
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range c.calls {
		if n != 1 {
			t.Errorf("%s on %s/%s th=%d simulated %d times", k.prog.Name, k.cfg.Name, k.cfg.Policy, k.cfg.Redsoc.ThresholdTicks, n)
		}
	}
	pairs := len(bs) * len(cores)
	if want := pairs * (len(ThresholdCandidates) + 4); c.total() != want {
		t.Fatalf("memo simulated %d runs, want %d", c.total(), want)
	}
	scaled := 0
	for _, cell := range g.Cells {
		if cell.Cmp.TS.PeriodPS < timing.ClockPS {
			scaled++
		}
	}
	if scaled != pairs {
		t.Fatalf("TS overclocked %d of %d cells; the counts below assume all", scaled, pairs)
	}
	if got, before := c.total()+scaled, pairs*(2*len(ThresholdCandidates)+5+2); got != 405 || before != 675 {
		t.Fatalf("grid made %d ooo.Run calls (%d before the memo), want 405 (675)", got, before)
	}
}

// TestMemoRetriesPanickedSimulation makes two simulations panic on their
// first attempt: a baseline the sweep asks for first and a MOS run only a
// cell asks for. The memo must not keep the failed attempt, so the
// campaign's retry simulates each again, and the grid is byte-identical to
// a clean run's.
func TestMemoRetriesPanickedSimulation(t *testing.T) {
	bs := Benchmarks(Quick)[:2]
	cores := []ooo.Config{ooo.BigConfig()}
	var clean simCounter
	want, err := run(context.Background(), bs, cores, Options{SweepThreshold: true, Workers: 2}, clean.memo())
	if err != nil {
		t.Fatal(err)
	}

	base := simKey{bs[1].Prog, cores[0].WithPolicy(ooo.PolicyBaseline)}
	mos := simKey{bs[0].Prog, cores[0].WithPolicy(ooo.PolicyMOS)}
	faulty := simCounter{panicOnce: map[simKey]bool{base: true, mos: true}}
	var stats campaign.Stats
	got, err := run(context.Background(), bs, cores,
		Options{SweepThreshold: true, Workers: 2, Retries: 1, Stats: &stats}, faulty.memo())
	if err != nil {
		t.Fatal(err)
	}
	if p := stats.Panics.Load(); p != 2 {
		t.Fatalf("campaign recovered %d panics, want 2", p)
	}
	for k, n := range faulty.calls {
		if want := map[bool]int{false: 1, true: 2}[faulty.panicOnce[k]]; n != want {
			t.Errorf("%s on %s simulated %d times, want %d", k.prog.Name, k.cfg.Policy, n, want)
		}
	}
	if wf, gf := gridFingerprint(t, want), gridFingerprint(t, got); wf != gf {
		t.Fatalf("grid after retried panics diverges:\n%s", firstDiff(wf, gf))
	}
}

// TestMemoKeepOnly pins eviction: kept keys are served without simulating,
// dropped ones simulate again.
func TestMemoKeepOnly(t *testing.T) {
	p := Benchmarks(Quick)[0].Prog
	a, b := ooo.SmallConfig().WithPolicy(ooo.PolicyBaseline), redsocAt(ooo.SmallConfig(), 5)
	var c simCounter
	m := c.memo()
	for _, cfg := range []ooo.Config{a, b} {
		if _, err := m.run(cfg, p); err != nil {
			t.Fatal(err)
		}
	}
	m.keepOnly([]simKey{{p, a}})
	for _, cfg := range []ooo.Config{a, b} {
		if _, err := m.run(cfg, p); err != nil {
			t.Fatal(err)
		}
	}
	if c.calls[simKey{p, a}] != 1 || c.calls[simKey{p, b}] != 2 {
		t.Fatalf("calls = %v, want the kept key once and the dropped key twice", c.calls)
	}
}
