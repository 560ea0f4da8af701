// Package trace serializes dynamic programs to a compact binary format so
// traces can be generated once (kernels at full evaluation size take a
// moment to build) and replayed across runs or shared between machines.
//
// Format (little-endian, varint-coded):
//
//	magic "RDSC" | version u8
//	name: varint len + bytes
//	mem: varint count, then per entry varint addr, varint value
//	instrs: varint count, then per instruction a field-packed record
//
// Per instruction: opcode u8, flags u8 (bit0 SetFlags, bit1 Taken,
// bit2 hasImm, bit3 hasAddr), dst/src1/src2/src3 u8, shiftAmt u8, lane u8,
// then varint imm (if hasImm) and varint addr (if hasAddr). PCs are
// delta-coded as signed varints; Seq is implicit (record order).
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"redsoc/internal/isa"
)

const (
	magic   = "RDSC"
	version = 1

	// maxNameLen bounds the program name a trace may declare. Names are
	// benchmark identifiers; a larger length is a corrupt or hostile header.
	maxNameLen = 4096
	// maxInstrPrealloc caps the instruction slice Read sizes from the
	// header's count; longer traces grow it by append. The count is
	// untrusted: a few header bytes can claim billions of records, each at
	// least 8 bytes on disk, and the read fails at the first missing one.
	maxInstrPrealloc = 1 << 18
)

// Write serializes a program.
func Write(w io.Writer, p *isa.Program) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(p.Name)))
	bw.WriteString(p.Name)

	writeUvarint(bw, uint64(len(p.Mem)))
	// Deterministic order: ascending addresses.
	addrs := make([]uint64, 0, len(p.Mem))
	for a := range p.Mem {
		addrs = append(addrs, a)
	}
	sortU64(addrs)
	for _, a := range addrs {
		writeUvarint(bw, a)
		writeUvarint(bw, p.Mem[a])
	}

	writeUvarint(bw, uint64(len(p.Instrs)))
	lastPC := int64(0)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		bw.WriteByte(byte(in.Op))
		var fl byte
		if in.SetFlags {
			fl |= 1
		}
		if in.Taken {
			fl |= 2
		}
		if in.Imm != 0 {
			fl |= 4
		}
		if in.Addr != 0 {
			fl |= 8
		}
		bw.WriteByte(fl)
		bw.WriteByte(byte(in.Dst))
		bw.WriteByte(byte(in.Src1))
		bw.WriteByte(byte(in.Src2))
		bw.WriteByte(byte(in.Src3))
		bw.WriteByte(in.ShiftAmt)
		bw.WriteByte(byte(in.Lane))
		writeVarint(bw, int64(in.PC)-lastPC)
		lastPC = int64(in.PC)
		if fl&4 != 0 {
			writeUvarint(bw, in.Imm)
		}
		if fl&8 != 0 {
			writeUvarint(bw, in.Addr)
		}
	}
	return bw.Flush()
}

// Read deserializes a program.
func Read(r io.Reader) (*isa.Program, error) {
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds %d", nameLen, maxNameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, err
	}
	p := &isa.Program{Name: string(nameBuf), Mem: map[uint64]uint64{}}

	nMem, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nMem; i++ {
		a, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		p.Mem[a] = v
	}

	nIns, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	p.Instrs = make([]isa.Instruction, 0, min(nIns, maxInstrPrealloc))
	lastPC := int64(0)
	for i := uint64(0); i < nIns; i++ {
		var rec [8]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: instr %d: %w", i, err)
		}
		in := isa.Instruction{
			Seq:      int(i),
			Op:       isa.Op(rec[0]),
			SetFlags: rec[1]&1 != 0,
			Taken:    rec[1]&2 != 0,
			Dst:      isa.Reg(rec[2]),
			Src1:     isa.Reg(rec[3]),
			Src2:     isa.Reg(rec[4]),
			Src3:     isa.Reg(rec[5]),
			ShiftAmt: rec[6],
			Lane:     isa.Lane(rec[7]),
		}
		d, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		lastPC += d
		in.PC = uint64(lastPC)
		if rec[1]&4 != 0 {
			if in.Imm, err = binary.ReadUvarint(br); err != nil {
				return nil, err
			}
		}
		if rec[1]&8 != 0 {
			if in.Addr, err = binary.ReadUvarint(br); err != nil {
				return nil, err
			}
		}
		p.Instrs = append(p.Instrs, in)
	}
	return p, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

// sortU64 is an insertion-free small sort (addresses are few enough that
// stdlib sort would be fine; kept dependency-light).
func sortU64(a []uint64) {
	// Simple heapsort to avoid pulling in sort for one call site.
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(a, i, n)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftDown(a, 0, i)
	}
}

func siftDown(a []uint64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && a[child+1] > a[child] {
			child++
		}
		if a[root] >= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}
