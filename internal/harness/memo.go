package harness

import (
	"sync"

	"redsoc/internal/isa"
	"redsoc/internal/ooo"
)

// simKey identifies one simulation: the program and the full core
// configuration, policy and ReDSOC threshold included. ooo.Run is a pure
// function of the two, so equal keys mean equal results.
type simKey struct {
	prog *isa.Program
	cfg  ooo.Config
}

// simMemo makes one grid simulate each distinct run at most once. The four
// sweep candidates of a (class, core) pair share every benchmark's baseline
// run, and a cell reuses the sweep's baseline and chosen-threshold ReDSOC
// runs. Entries are filled lazily, so work the journal serves simulates
// nothing. A memo lives for one Run.
type simMemo struct {
	sim     simFunc
	mu      sync.Mutex
	entries map[simKey]*memoEntry
}

// memoEntry is one key's result. Its mutex is held while the simulation
// runs, so concurrent askers wait for the first one instead of repeating it.
type memoEntry struct {
	mu   sync.Mutex
	done bool
	res  *ooo.Result
	err  error
}

func newSimMemo(sim simFunc) *simMemo {
	return &simMemo{sim: sim, entries: map[simKey]*memoEntry{}}
}

// run returns the result of simulating prog on cfg, simulating only if no
// earlier call has. A simulation that panics leaves its entry not done, so
// the campaign's retry (or a waiting worker) simulates it afresh; a
// returned error is deterministic and is kept like a result.
func (m *simMemo) run(cfg ooo.Config, prog *isa.Program) (*ooo.Result, error) {
	k := simKey{prog, cfg}
	m.mu.Lock()
	e := m.entries[k]
	if e == nil {
		e = &memoEntry{}
		m.entries[k] = e
	}
	m.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.res, e.err = m.sim(cfg, prog)
		e.done = true
	}
	return e.res, e.err
}

// keepOnly drops every entry but keys', so results no later unit will read
// can be collected.
func (m *simMemo) keepOnly(keys []simKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := make(map[simKey]*memoEntry, len(keys))
	for _, k := range keys {
		if e := m.entries[k]; e != nil {
			kept[k] = e
		}
	}
	m.entries = kept
}
