package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankAt is the nearest-rank index of quantile q in n sorted samples.
func rankAt(q float64, n int) int {
	k := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(k, n-1))
}

// median is the middle sample (the mean of the two middle ones for even n);
// 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest tailLevels percentile that has at least ten
// samples beyond it (nearest rank), and that level. With fewer than 21
// samples no level qualifies and the median's rank is used.
func tail(xs []float64) (value, level float64) {
	n := len(xs)
	if n == 0 {
		return 0, 50
	}
	s := sorted(xs)
	for _, l := range tailLevels {
		if k := rankAt(l/100, n); n-1-k >= 10 {
			return s[k], l
		}
	}
	return s[rankAt(0.5, n)], 50
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS mark at the current resident set, so the next peakRSSMB reading
// covers only what follows. It reports false where /proc/self/clear_refs is
// not writable; the peak then covers the whole process.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procSample is a point-in-time reading of the process counters.
type procSample struct {
	cpu        float64
	allocBytes uint64
	gcCycles   uint32
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{cpu: cpuSeconds(), allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}
