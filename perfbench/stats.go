package main

import (
	"math"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place); 0 for
// an empty slice.
func quantile[T int64 | float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of the values (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB collects garbage and returns the live heap in MiB.
func heapMB() float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcClock reads the Go runtime's cumulative GC CPU and total CPU estimates.
type gcClock struct{ gc, total float64 }

func readGCClock() gcClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c gcClock
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// since returns the GC and total CPU spent since an earlier read.
func (c gcClock) since(earlier gcClock) gcClock {
	return gcClock{c.gc - earlier.gc, c.total - earlier.total}
}

// frac is the share of the CPU in c spent in GC.
func (c gcClock) frac() float64 {
	if c.total <= 0 {
		return 0
	}
	return c.gc / c.total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
