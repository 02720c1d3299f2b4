package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// cpuModel returns the "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime returns the process's user+system CPU time (getrusage), which
// covers every goroutine: the system under test and the load generator.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF): " + err.Error()) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSample is the slice of runtime.MemStats the benchmark reports.
type memSample struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// memDelta is what the runtime did between two samples.
type memDelta struct {
	allocBytes float64
	gcCycles   float64
	gcPauseMs  float64
}

func (d *memDelta) add(o memDelta) {
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	d.gcPauseMs += o.gcPauseMs
}

func (a memSample) to(b memSample) memDelta {
	return memDelta{
		allocBytes: float64(b.totalAlloc - a.totalAlloc),
		gcCycles:   float64(b.numGC - a.numGC),
		gcPauseMs:  float64(b.pauseNs-a.pauseNs) / 1e6,
	}
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
