package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The hosts this benchmark runs on change speed under it. On the 2-vCPU
// guest it was written on, the same request stream, the server's CPU
// time per request included, ran up to twice as slow in one minute as in
// the next, for minutes at a time: a busier neighbour, not anything the
// guest can see or avoid. A fixed task timed beside each measurement
// follows that speed closely enough to take most of it out again, so
// every time the benchmark reports is divided by the slowdown the task
// showed just before it (see "Noise" in README.md for how much that
// buys). The task does what the server does: it allocates small strings,
// fills a map, sorts and concatenates.

// referenceTaskMS is what the task takes on that guest when it is calm.
// It only fixes the scale: corrected times read as that guest's.
const referenceTaskMS = 5.0

var taskSink int

func speedTask() time.Duration {
	start := time.Now()
	m := map[int]string{}
	x := uint64(88172645463325252)
	keys := make([]int, 0, 20000)
	for i := 0; i < cap(keys); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int(x % 5000)
		m[k] = strconv.Itoa(int(x%100000)) + "-" + strconv.Itoa(i)
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(m[k])
	}
	taskSink += sb.Len()
	return time.Since(start)
}

// slowdown is how many times slower than the reference the host runs:
// by the clock, which a descheduled vCPU stops for nobody, and by the
// CPU time the kernel charges, which it does not count. Wall-clock
// timings are corrected by the first, CPU times by the second. A time
// divided by it, or a rate multiplied by it, reads as at reference speed.
type slowdown struct{ wall, cpu float64 }

// hostSlowdown times the task — the best of three, since what follows
// reports medians, which shrug off a short interruption as well.
func hostSlowdown() slowdown {
	best := slowdown{wall: math.Inf(1), cpu: math.Inf(1)}
	for i := 0; i < 3; i++ {
		cpuBefore := processCPU()
		wall := speedTask()
		cpu := processCPU() - cpuBefore
		best.wall = min(best.wall, float64(wall.Nanoseconds())/1e6/referenceTaskMS)
		best.cpu = min(best.cpu, float64(cpu.Nanoseconds())/1e6/referenceTaskMS)
	}
	return best
}

// processCPU is the CPU time of this process so far. The kernel keeps
// the sum of user and system time to the nanosecond, whatever the tick.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
