package ooo

import (
	"fmt"

	"redsoc/internal/isa"
)

// CheckMemDeps runs prog under cfg and checks, for every load at its
// dispatch, the memory dependence the engine linked from the decode's
// StoreDep column against scanStoreQueue, the youngest→oldest scan of the
// in-flight stores the engine performed before. It returns how many loads it
// checked.
func CheckMemDeps(cfg Config, prog *isa.Program) (int, error) {
	s, err := New(cfg, prog)
	if err != nil {
		return 0, err
	}
	loads := 0
	for cycle := int64(0); ; cycle++ {
		if cycle > 64*int64(len(prog.Instrs))+100000 {
			return loads, fmt.Errorf("no drain after %d cycles", cycle)
		}
		if s.step(cycle) {
			return loads, nil
		}
		// Commit runs before dispatch within a cycle, so at the end of the
		// cycle the LSQ holds exactly the stores in flight at each of this
		// cycle's dispatches, plus younger ones the scan skips by seq.
		for i := 0; i < s.rob.len(); i++ {
			e := s.ent(s.rob.at(i))
			if !e.isLoad || e.dispatchCycle != cycle {
				continue
			}
			loads++
			if want := s.scanStoreQueue(e); e.memDep != want {
				return loads, fmt.Errorf("cycle %d: load seq %d (trace %d) linked memDep %d, store-queue scan says %d",
					cycle, e.seq, e.ti, e.memDep, want)
			}
		}
	}
}

// scanStoreQueue is the test oracle: the youngest store older than ld still
// in the LSQ whose byte range overlaps ld's, or none.
func (s *Simulator) scanStoreQueue(ld *entry) int32 {
	for i := s.lsq.len() - 1; i >= 0; i-- {
		sti := s.lsq.at(i)
		st := s.ent(sti)
		if st.isStore && st.seq < ld.seq && rangesOverlap(ld.addrLo, ld.addrHi, st.addrLo, st.addrHi) {
			return sti
		}
	}
	return none
}

func rangesOverlap(aLo, aHi, bLo, bHi uint64) bool {
	return aLo < bHi && bLo < aHi
}
