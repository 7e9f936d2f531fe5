package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
)

// quantile returns the q-quantile of sorted samples by the
// nearest-rank method.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

// median returns the median of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocMark is the process's allocation counters at one instant.
type allocMark struct{ mallocs, bytes uint64 }

func readAllocs() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.Mallocs, ms.TotalAlloc}
}

// liveHeapMB collects garbage and returns the bytes still reachable,
// in MB (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuMark is the runtime's CPU accounting at one instant.
type cpuMark struct{ gc, total, idle float64 }

func readCPU() cpuMark {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuMark{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// gcShare is the share of the busy (non-idle) CPU time between two
// marks that the garbage collector used.
func gcShare(a, b cpuMark) float64 {
	busy := (b.total - a.total) - (b.idle - a.idle)
	return ratio(b.gc-a.gc, busy)
}
