package main

import (
	"math"
	"runtime/metrics"
)

// rtSample is one reading of the runtime/metrics the benchmark uses.
type rtSample struct {
	cpuTotal, cpuIdle, cpuGC, cpuAssist float64 // CPU-seconds
	allocObjects, allocBytes, gcCycles  uint64
	mutexWait                           float64 // seconds
	heapLive                            uint64
	sched                               *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/gc/heap/live:bytes",
	"/sched/latencies:seconds",
}

// readRuntime reads the runtime metrics. The /cpu/classes figures are only
// brought up to date by a garbage collection, so callers that need exact
// CPU deltas force one first.
func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return rtSample{
		cpuTotal:     ms[0].Value.Float64(),
		cpuIdle:      ms[1].Value.Float64(),
		cpuGC:        ms[2].Value.Float64(),
		cpuAssist:    ms[3].Value.Float64(),
		allocObjects: ms[4].Value.Uint64(),
		allocBytes:   ms[5].Value.Uint64(),
		gcCycles:     ms[6].Value.Uint64(),
		mutexWait:    ms[7].Value.Float64(),
		heapLive:     ms[8].Value.Uint64(),
		sched:        ms[9].Value.Float64Histogram(),
	}
}

// rtDelta is what happened between two readings.
type rtDelta struct {
	cpuBusy, cpuGC, cpuAssist          float64
	allocObjects, allocBytes, gcCycles float64
	mutexWait                          float64
	heapLive                           float64 // bytes, at the later reading
	schedP99                           float64 // seconds
}

func (a rtSample) to(b rtSample) rtDelta {
	d := rtDelta{
		cpuBusy:      (b.cpuTotal - b.cpuIdle) - (a.cpuTotal - a.cpuIdle),
		cpuGC:        b.cpuGC - a.cpuGC,
		cpuAssist:    b.cpuAssist - a.cpuAssist,
		allocObjects: float64(b.allocObjects - a.allocObjects),
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		gcCycles:     float64(b.gcCycles - a.gcCycles),
		mutexWait:    b.mutexWait - a.mutexWait,
	}
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	d.schedP99 = histQuantile(b.sched.Buckets, counts, total, 0.99)
	return d
}

// histQuantile returns the upper edge of the bucket holding quantile q
// (the lower edge for the open top bucket).
func histQuantile(buckets []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			if math.IsInf(buckets[i+1], 1) {
				return buckets[i]
			}
			return buckets[i+1]
		}
	}
	return buckets[len(buckets)-1]
}
