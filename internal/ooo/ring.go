package ooo

// seqRing is a fixed-capacity FIFO of slab indices, used for the ROB and the
// LSQ. The previous representation (`s.rob = s.rob[1:]` at
// commit) walked a []*entry backing array forward forever, pinning every
// retired entry until the next append reallocated; the ring retires a slot in
// place, and because it holds int32 indices rather than pointers, pushes are
// barrier-free and the GC never scans it. Capacity is fixed at construction:
// dispatch enforces the ROB/LSQ size bounds before pushing, so overflow is a
// scheduler bug, not a growth condition. Capacities need not be powers of two
// (the Big ROB holds 160), so indices wrap by compare-and-subtract rather than
// a division.
type seqRing struct {
	buf  []int32
	head int // index of the oldest element
	n    int
}

func newSeqRing(capacity int) seqRing {
	return seqRing{buf: make([]int32, capacity)}
}

// len returns the number of queued indices.
func (r *seqRing) len() int { return r.n }

// slot maps a position relative to the head (0 <= i < capacity) to its
// buffer index.
//
//redsoc:hotpath
func (r *seqRing) slot(i int) int {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return j
}

// push appends i at the tail (youngest position) and returns the buffer
// slot it occupies until popped; the ROB's slot is the entry's position in
// the scheduler's ready bitmap.
//
//redsoc:hotpath
func (r *seqRing) push(i int32) int32 {
	if r.n == len(r.buf) {
		panic("ooo: ring overflow; dispatch must bound occupancy before pushing") //lint:allow panicpolicy audited invariant: dispatch stalls at capacity
	}
	j := r.slot(r.n)
	r.buf[j] = i
	r.n++
	return int32(j)
}

// front returns the oldest index without removing it.
//
//redsoc:hotpath
func (r *seqRing) front() int32 { return r.buf[r.head] }

// popFront removes and returns the oldest index.
//
//redsoc:hotpath
func (r *seqRing) popFront() int32 {
	i := r.buf[r.head]
	r.head = r.slot(1)
	r.n--
	return i
}

// at returns the i-th oldest index (0 = head). Dispatch resolves a load's
// memory dependence through the ROB with this.
//
//redsoc:hotpath
func (r *seqRing) at(i int) int32 {
	return r.buf[r.slot(i)]
}
