// Package sched exercises the schedalloc rules on a miniature scheduler
// shape: marked functions must not allocate; unmarked ones may.
package sched

import (
	"fmt"
	"sort"
)

type entry struct {
	seq     int64
	waiters []*entry
}

type sim struct {
	ready   []*entry
	scratch []*entry
	free    []*entry
	name    string
}

// rebuildReady is the sanctioned shape: reslice a reusable buffer, append into
// it, swap the backing arrays. Nothing here allocates in steady state.
//
//redsoc:hotpath
func (s *sim) rebuildReady(woken []*entry) {
	out := s.scratch[:0]
	for _, e := range woken {
		out = append(out, e)
	}
	s.scratch = s.ready[:0]
	s.ready = out
}

// fieldAppend: a bare struct-field append grows its backing array in place —
// the unbounded-growth shape that leaked allocations on the replay path —
// while a reslice of the same field and an element of an array stay views of
// warm backing arrays.
//
//redsoc:hotpath
func (s *sim) fieldAppend(e, p *entry, byFU [2][]*entry) {
	p.waiters = append(p.waiters, e) // want `appends to a struct field`
	p.waiters = append(p.waiters[:0], e)
	byFU[0] = append(byFU[0], e)
}

// localClosure: a function literal assigned to a local and invoked in place
// stays on the stack, so it is not flagged.
//
//redsoc:hotpath
func (s *sim) localClosure(e *entry) int64 {
	last := func(x *entry) int64 { return x.seq }
	return last(e)
}

// cold carries no marker: the same constructs off the hot path are fine.
func (s *sim) cold(n int) []*entry {
	buf := make([]*entry, 0, n)
	sort.Slice(buf, func(i, j int) bool { return buf[i].seq < buf[j].seq })
	return buf
}

//redsoc:hotpath
func (s *sim) freshBuffers(n int) {
	buf := make([]*entry, 0, n) // want `calls make, which allocates`
	_ = buf
	p := new(entry) // want `calls new, which allocates`
	_ = p
}

//redsoc:hotpath
func (s *sim) literals(e *entry) {
	s.ready = []*entry{e} // want `allocates a slice literal`
	m := map[int64]*entry{e.seq: e} // want `allocates a map literal`
	_ = m
	q := &entry{seq: e.seq} // want `heap-allocates \(&composite literal\)`
	_ = q
}

//redsoc:hotpath
func (s *sim) stringWork(e *entry) string {
	key := s.name + "/unissued" // want `concatenates strings`
	_ = key
	return string(rune(e.seq)) // want `converts to string`
}

//redsoc:hotpath
func (s *sim) format(e *entry) {
	fmt.Println(e.seq) // want `calls fmt\.Println, which allocates`
}

// sorted: the sort call is the finding; its comparator closure is not
// reported a second time.
//
//redsoc:hotpath
func (s *sim) sorted() {
	sort.Slice(s.ready, func(i, j int) bool { return s.ready[i].seq < s.ready[j].seq }) // want `calls sort\.Slice`
}

//redsoc:hotpath
func (s *sim) escaping(visit func(func(*entry))) {
	visit(func(e *entry) { e.seq++ }) // want `passes a function literal to a call`
}

func (s *sim) snapshot() []*entry { return s.ready }

//redsoc:hotpath
func (s *sim) freshAppend(e *entry) []*entry {
	return append(s.snapshot(), e) // want `appends to a fresh slice`
}

// observer is the boxing magnet: emit takes any.
type observer struct{}

func (observer) emit(v any)       {}
func (observer) typed(e *entry)   {}
func sinkAny(v any)               {}
func sinkIface(err error)         {}
func already(v any) any           { return v }

// boxing: explicit interface conversions and concrete values meeting
// interface-typed parameters allocate the interface's data word.
//
//redsoc:hotpath
func (s *sim) boxing(o observer, e *entry, err error) {
	v := any(e.seq) // want `converts to an interface, which boxes`
	_ = v
	o.emit(e.seq)  // want `passes a concrete value where any is expected`
	sinkAny(e)     // want `passes a concrete value where any is expected`
	sinkIface(err) // already an interface: no boxing
	o.typed(e)     // concrete parameter: no boxing
	sinkAny(nil)   // nil boxes nothing
	sinkAny(42)    // constants are backed by static data: no allocation
	_ = already(v) // interface-to-interface: no boxing
	if e == nil {
		panic("sched: nil entry") // a panic aborts the run: never a steady-state cost
	}
	if e.seq < 0 {
		// The whole panic argument is exempt: Sprintf, boxing, concatenation —
		// none of it is steady-state work.
		panic(fmt.Sprintf("sched: negative seq %d for %s", e.seq, s.name+"/panic"))
	}
}

// grow demonstrates the audited escape hatch: the arena's grow path allocates
// until the free list warms, then never again.
//
//redsoc:hotpath
func (s *sim) grow() *entry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	return &entry{} //lint:allow schedalloc arena grow path, amortized by recycling
}
