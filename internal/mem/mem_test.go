package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read64(0x100) != 0 {
		t.Fatal("unwritten memory must read zero")
	}
	m.Write64(0x100, 42)
	if m.Read64(0x100) != 42 {
		t.Fatal("write lost")
	}
	// Sub-word addresses alias their aligned word.
	if m.Read64(0x104) != 42 {
		t.Fatal("aligned aliasing broken")
	}
}

func TestMemory128(t *testing.T) {
	m := NewMemory()
	m.Write128(0x200, 1, 2)
	lo, hi := m.Read128(0x200)
	if lo != 1 || hi != 2 {
		t.Fatalf("Read128 = %d,%d", lo, hi)
	}
	if m.Read64(0x208) != 2 {
		t.Fatal("high word must live at addr+8")
	}
}

func TestMemorySnapshotIsCopy(t *testing.T) {
	m := NewMemoryFrom(map[uint64]uint64{0x10: 7})
	snap := m.Snapshot()
	m.Write64(0x10, 9)
	if snap[0x10] != 7 {
		t.Fatal("snapshot must not alias live memory")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// Property: read-after-write returns the written value for arbitrary
// aligned addresses.
func TestMemoryRAWProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr, v uint64) bool {
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHierarchyColdMissThenHit(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	lat, lvl := h.Access(0x1000)
	if lvl != LevelDRAM || lat != DefaultConfig().DRAMLatency {
		t.Fatalf("cold access = %d cycles at %v", lat, lvl)
	}
	lat, lvl = h.Access(0x1000)
	if lvl != LevelL1 || lat != DefaultConfig().L1Latency {
		t.Fatalf("second access = %d cycles at %v", lat, lvl)
	}
	// Same line, different word: still an L1 hit.
	if _, lvl := h.Access(0x1008); lvl != LevelL1 {
		t.Fatal("same-line access must hit L1")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	h.Access(0x1000) // miss; prefetches 0x1040
	if _, lvl := h.Access(0x1040); lvl != LevelL1 {
		t.Fatal("next line must have been prefetched into L1")
	}
	if h.Stats().Prefetches == 0 {
		t.Fatal("prefetch counter not incremented")
	}
	// Without prefetch the next line misses.
	cfg.NextLinePrefetch = false
	h2 := NewHierarchy(cfg)
	h2.Access(0x1000)
	if _, lvl := h2.Access(0x1040); lvl == LevelL1 {
		t.Fatal("prefetch disabled but next line hit L1")
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	h.Access(0x0)
	// Evict set 0 of L1 by touching L1Ways+1 conflicting lines; L1 has
	// 64kB/4way/64B = 256 sets, so stride = 256*64 = 16kB.
	stride := uint64(cfg.L1Bytes / cfg.L1Ways)
	for i := 1; i <= cfg.L1Ways; i++ {
		h.Access(uint64(i) * stride)
	}
	lat, lvl := h.Access(0x0)
	if lvl != LevelL2 {
		t.Fatalf("evicted line must hit L2, got %v (%d cycles)", lvl, lat)
	}
}

func TestLRUKeepsHotLine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	stride := uint64(cfg.L1Bytes / cfg.L1Ways)
	h.Access(0x0)
	for i := 1; i <= cfg.L1Ways-1; i++ {
		h.Access(uint64(i) * stride)
		h.Access(0x0) // keep the hot line most recent
	}
	h.Access(uint64(cfg.L1Ways) * stride) // evicts an LRU victim, not 0x0
	if _, lvl := h.Access(0x0); lvl != LevelL1 {
		t.Fatal("hot line must survive under LRU")
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	h.Access(0x0)
	h.Access(0x0)
	h.Access(0x0)
	s := h.Stats()
	if s.Accesses != 3 || s.L1Hits != 2 || s.DRAMAccesses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.L1MissRate(); got < 0.33 || got > 0.34 {
		t.Fatalf("L1MissRate = %v", got)
	}
}

func TestWorkingSetMissBehaviour(t *testing.T) {
	// A working set far larger than L1 but inside L2 should mostly hit L2 on
	// the second pass (with prefetch disabled to make the point sharply).
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	lines := (256 << 10) / cfg.LineBytes // 256kB working set
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			h.Access(uint64(i * cfg.LineBytes))
		}
	}
	s := h.Stats()
	if s.L2Hits == 0 {
		t.Fatal("second pass over a 256kB set must hit L2")
	}
	if s.DRAMAccesses > uint64(lines)+8 {
		t.Fatalf("DRAM accesses %d imply L2 is not retaining the set", s.DRAMAccesses)
	}
}

func TestSequentialStreamPrefetchEffectiveness(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	for i := 0; i < 4096; i++ {
		h.Access(uint64(i * 8)) // sequential word stream
	}
	s := h.Stats()
	if rate := s.L1MissRate(); rate > 0.02 {
		t.Fatalf("sequential stream with next-line prefetch misses %.3f of accesses", rate)
	}
}

func TestGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid geometry must panic")
		}
	}()
	newCache(1000, 3, 64)
}

func TestRandomAccessesDoNotPanic(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		h.Access(rng.Uint64() % (1 << 30))
	}
}

// TestShiftMaskIndexingMatchesDivision pins the divide-free address split to
// the division form it replaced — set = addr/line mod sets, tag =
// addr/line/sets, line = addr/line — over random addresses, for every
// geometry in a bounded space that Config.Validate accepts. Geometries it
// rejects (non-power-of-two lines or set counts) must also fail newCache.
func TestShiftMaskIndexingMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 256)
	for i := range addrs {
		addrs[i] = rng.Uint64() >> uint(rng.Intn(64))
	}
	accepted := 0
	for line := 1; line <= 128; line++ {
		for ways := 1; ways <= 8; ways++ {
			for sets := 1; sets <= 64; sets++ {
				bytes := line * ways * sets
				cfg := DefaultConfig()
				cfg.LineBytes = line
				cfg.L1Bytes, cfg.L1Ways = bytes, ways
				cfg.L2Bytes, cfg.L2Ways = 2*bytes, ways
				if cfg.Validate() != nil {
					func() {
						defer func() { recover() }()
						newCache(bytes, ways, line)
						t.Fatalf("geometry %d/%d/%d: Validate rejects it but newCache accepts it", bytes, ways, line)
					}()
					continue
				}
				accepted++
				h := NewHierarchy(cfg)
				for _, c := range []*cache{h.l1, h.l2} {
					for _, a := range addrs {
						l, n := uint64(line), uint64(c.sets)
						if got, want := c.setOf(a), int(a/l%n); got != want {
							t.Fatalf("%d sets x %d ways x %dB: setOf(%#x) = %d, want %d", c.sets, ways, line, a, got, want)
						}
						if got, want := c.tagOf(a), a/l/n; got != want {
							t.Fatalf("%d sets x %d ways x %dB: tagOf(%#x) = %#x, want %#x", c.sets, ways, line, a, got, want)
						}
						if got, want := h.lineOf(a), a/l; got != want {
							t.Fatalf("%dB lines: lineOf(%#x) = %#x, want %#x", line, a, got, want)
						}
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no geometry accepted: the enumeration tests nothing")
	}
}

func TestValidateRejectsNonPowerOfTwoLine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LineBytes = 48
	cfg.L1Bytes, cfg.L2Bytes = 48*4*256, 48*8*4096
	if err := cfg.Validate(); err == nil {
		t.Fatal("48-byte lines must be rejected: the cache indexes by shift and mask")
	}
}
