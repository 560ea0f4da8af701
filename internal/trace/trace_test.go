package trace_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/trace"
	"redsoc/internal/workload"
	"redsoc/internal/workload/mibench"
)

func roundTrip(t *testing.T, p *isa.Program) *isa.Program {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTripKernel(t *testing.T) {
	p, exp := mibench.CRC(200, 5)
	got := roundTrip(t, p)
	if got.Name != p.Name || len(got.Instrs) != len(p.Instrs) {
		t.Fatalf("shape mismatch: %q/%d vs %q/%d", got.Name, len(got.Instrs), p.Name, len(p.Instrs))
	}
	for i := range p.Instrs {
		if got.Instrs[i] != p.Instrs[i] {
			t.Fatalf("instr %d differs:\n got %+v\nwant %+v", i, got.Instrs[i], p.Instrs[i])
		}
	}
	if len(got.Mem) != len(p.Mem) {
		t.Fatalf("mem image %d vs %d entries", len(got.Mem), len(p.Mem))
	}
	for a, v := range p.Mem {
		if got.Mem[a] != v {
			t.Fatalf("mem[%#x] = %#x, want %#x", a, got.Mem[a], v)
		}
	}
	// The deserialized trace must simulate identically.
	r1, err := ooo.Run(ooo.SmallConfig().WithPolicy(ooo.PolicyRedsoc), p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ooo.Run(ooo.SmallConfig().WithPolicy(ooo.PolicyRedsoc), got)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || !r1.ArchEqual(r2) {
		t.Fatal("deserialized trace simulates differently")
	}
	for addr, want := range exp.Mem {
		if r2.FinalMem[addr] != want {
			t.Fatal("deserialized run lost correctness")
		}
	}
}

func TestRoundTripAllFieldKinds(t *testing.T) {
	p := &isa.Program{
		Name: "fields",
		Mem:  map[uint64]uint64{0x10: 7, 0xFFFF_FFFF_0000: 1 << 60},
		Instrs: []isa.Instruction{
			{Op: isa.OpADD, Dst: isa.R(1), Src1: isa.R(2), Imm: 1 << 40, PC: 0x1000},
			{Op: isa.OpVMLA, Lane: isa.Lane16, Dst: isa.V(1), Src1: isa.V(2), Src2: isa.V(3), Src3: isa.V(1), PC: 0x990},
			{Op: isa.OpLDR, Dst: isa.R(3), Src1: isa.R(4), Addr: 0xDEAD_BEE8, PC: 0x1000},
			{Op: isa.OpB, Src1: isa.Flags, Taken: true, PC: 0x4},
			{Op: isa.OpSUB, Dst: isa.R(1), Src1: isa.R(1), Imm: 3, SetFlags: true, PC: 0x8},
			{Op: isa.OpLSR, Dst: isa.R(2), Src1: isa.R(1), ShiftAmt: 9, PC: 0xC},
		},
	}
	for i := range p.Instrs {
		p.Instrs[i].Seq = i
	}
	got := roundTrip(t, p)
	for i := range p.Instrs {
		if got.Instrs[i] != p.Instrs[i] {
			t.Fatalf("instr %d: got %+v want %+v", i, got.Instrs[i], p.Instrs[i])
		}
	}
}

func TestCompactness(t *testing.T) {
	p, _ := mibench.Bitcount(400, 1)
	var buf bytes.Buffer
	if err := trace.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	perInstr := float64(buf.Len()) / float64(len(p.Instrs))
	if perInstr > 16 {
		t.Fatalf("%.1f bytes per instruction; format regressed", perInstr)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := trace.Read(strings.NewReader("RDSC\x07")); err == nil {
		t.Fatal("bad version must fail")
	}
	var buf bytes.Buffer
	p := &isa.Program{Name: "x", Instrs: []isa.Instruction{{Op: isa.OpADD, Dst: isa.R(1)}}}
	if err := trace.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := trace.Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream must fail")
	}
}

// TestReadTwelveByteTraceNameLength is the regression test for the 12-byte
// trace that killed the process: a 1 TiB name length sized the name buffer
// straight from the header, an out-of-memory crash recover cannot catch.
func TestReadTwelveByteTraceNameLength(t *testing.T) {
	file := binary.AppendUvarint([]byte("RDSC\x01"), 1<<40)
	file = append(file, 'x')
	if len(file) != 12 {
		t.Fatalf("fixture is %d bytes, want 12", len(file))
	}
	_, err := trace.Read(bytes.NewReader(file))
	if err == nil || !strings.Contains(err.Error(), "name length") {
		t.Fatalf("Read = %v, want a name-length error", err)
	}
}

// TestReadHugeInstructionCount is the regression test for the instruction
// count: a header claiming 2^40 records must fail at the first missing
// record instead of preallocating for all of them.
func TestReadHugeInstructionCount(t *testing.T) {
	// name "p", no memory image, 2^40 instructions, then three bytes of a
	// record that needs at least eight.
	file := []byte("RDSC\x01\x01p\x00")
	file = binary.AppendUvarint(file, 1<<40)
	file = append(file, 0, 0, 0)
	_, err := trace.Read(bytes.NewReader(file))
	if err == nil || !strings.Contains(err.Error(), "instr 0") {
		t.Fatalf("Read = %v, want a truncated-record error at instr 0", err)
	}
}

// TestStoreDep pins the decode's memory-dependence column: for each load, the
// youngest earlier store sharing an aligned 8-byte word, across 8- and
// 16-byte accesses, partial overlap of a vector access, a store after the
// load, and several candidate stores.
func TestStoreDep(t *testing.T) {
	b := workload.NewBuilder("storedep")
	b.Store(isa.R(1), isa.R(0), 0x100)             // 0: word 0x100
	b.Store(isa.R(1), isa.R(0), 0x104)             // 1: same word (unaligned address)
	b.Load(isa.R(2), isa.R(0), 0x100)              // 2: youngest store to the word is 1
	b.VecStore(isa.V(1), isa.R(0), 0x208)          // 3: words 0x208, 0x210
	b.Load(isa.R(3), isa.R(0), 0x210)              // 4: second word of the vector store
	b.Load(isa.R(3), isa.R(0), 0x200)              // 5: just below it: no dependence
	b.VecLoad(isa.V(2), isa.R(0), 0x100)           // 6: words 0x100, 0x108 -> store 1
	b.Store(isa.R(1), isa.R(0), 0x108)             // 7: second word of load 6's range
	b.VecLoad(isa.V(2), isa.R(0), 0x100)           // 8: partial overlap; youngest is 7
	b.Load(isa.R(4), isa.R(0), 0x300)              // 9: stored only later
	b.Store(isa.R(1), isa.R(0), 0x300)             // 10
	b.Op3(isa.OpADD, isa.R(5), isa.R(4), isa.R(4)) // 11: not a memory op
	want := []int32{-1, -1, 1, -1, 3, -1, 1, -1, 7, -1, -1, -1}
	d := trace.Decode(b.Build())
	for i, w := range want {
		if got := d.StoreDep[i]; got != w {
			t.Errorf("StoreDep[%d] = %d, want %d", i, got, w)
		}
	}
}
