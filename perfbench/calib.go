package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by a quarter or
// more over minutes as other tenants come and go; the process sees none of
// it as steal time, and its CPU time stretches with its wall time. So every
// repetition is bracketed by a calibration loop, code of the benchmark's
// own that no change to the program can move, and the end-to-end times are
// scaled to a host on which the loop takes calibRefS: a repetition's time
// at the reference speed is its wall time × calibRefS / the mean of the two
// calibration times around it, and ref_wall_s is the median of those over
// the run. setup_s is scaled the same way, by calibration before and after
// the set-up phase. host.wall_s and host.calib_ms report the unscaled
// medians.

// calibRefS is the calibration loop's time on the reference host: about
// its time on the 2-vCPU Xeon the benchmark was built on when that host
// was quiet, so that there ref_wall_s and the unscaled wall time agree.
const calibRefS = 0.05

// calibIters is the length of each half of the calibration loop.
const calibIters = 4_000_000

var calibSink atomic.Uint32

// calibLoop is the calibration work: xorshift hashing with a data-dependent
// branch, into a 256 KiB table that stays in the core's caches and then
// into a 4 MiB one that does not. Like the simulator it mixes integer work,
// branches and cache misses; on the benchmark's host the two halves
// together tracked the simulator's slowdown better than either alone.
func calibLoop() uint32 {
	var out uint32
	for _, bits := range []uint{16, 20} {
		tab := make([]uint32, 1<<bits)
		mask := uint64(1)<<bits - 1
		x := uint64(3)
		for i := 0; i < calibIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := x & mask
			if tab[k]&1 == 0 {
				tab[k] += uint32(x)
			} else {
				tab[k] -= 3
			}
		}
		out += tab[9]
	}
	return out
}

// calibShare is how long a calibration point after a repetition lasts, as
// a share of the repetition: a multi-second grid repetition is set against
// several rounds of the loop, not one round's noise.
const calibShare = 0.05

// calibSetupS is how long the calibration points around set-up last.
const calibSetupS = 0.2

// calibrate runs rounds of the calibration loop, each on workers goroutines
// at once (as many as the workload keeps busy), until minS seconds have
// passed, at least one round; it returns the median round's wall time.
func calibrate(workers int, minS float64) float64 {
	var rounds []float64
	for start := time.Now(); len(rounds) == 0 || time.Since(start).Seconds() < minS; {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < max(1, workers); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calibSink.Add(calibLoop())
			}()
		}
		wg.Wait()
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	return median(rounds)
}
