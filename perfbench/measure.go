package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between order statistics. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// beyond counts the samples of n that lie above the p-th percentile.
func beyond(n int, p float64) int {
	return n - 1 - int(math.Floor(p/100*float64(n-1)))
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostTicks is the aggregate CPU line of /proc/stat: all ticks and the
// ticks stolen by the hypervisor.
type hostTicks struct{ total, steal uint64 }

func readHostTicks() (hostTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t hostTicks
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return hostTicks{}, fmt.Errorf("/proc/stat: %w", err)
			}
			// guest and guest_nice (fields 9, 10) are already in user.
			if i < 8 {
				t.total += v
			}
			if i == 7 {
				t.steal = v
			}
		}
		return t, nil
	}
	return hostTicks{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealPct is the share of host ticks stolen between two readings, or -1
// when /proc/stat is unreadable.
func stealPct(a, b hostTicks, errA, errB error) float64 {
	if errA != nil || errB != nil || b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// gcState is the slice of runtime.MemStats a window reports.
type gcState struct {
	totalAlloc uint64
	numGC      uint32
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
