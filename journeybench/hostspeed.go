package main

import (
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

// hostRefMs is hostSpeed's typical time on the reference host, the
// 2-vCPU development VM (Intel Xeon, Firecracker guest, Go 1.24.0): the
// medians of twelve sets of ten runs read 124-141 ms, and single
// readings 93-183 ms. The end-to-end timings are reported at that host
// speed.
const hostRefMs = 130

// hostSink keeps the kernel's results live.
var hostSink int

// hostSpeed times a fixed kernel shaped like the replays' work and
// returns its wall time in ms: integer-keyed and path-keyed map inserts
// that grow their tables and churn the heap, then a sort of half a
// million integers. It calls no code of this repository, so no change to
// the repository moves it; what moves it is how fast the shared host
// runs the same instructions. The parent times it between samples, in
// its own process, so the sample's heap and peak RSS are untouched.
// Each call starts from a collected heap with its pages returned to the
// OS, whatever ran before it.
func hostSpeed() float64 {
	debug.FreeOSMemory()
	t := time.Now()
	ints := make(map[int]int)
	for i := 0; i < 250_000; i++ {
		ints[i*7919] = i
	}
	paths := make(map[string]int)
	for i := 0; i < 100_000; i++ {
		paths["/home/u"+strconv.Itoa(i%2000)+"/f"+strconv.Itoa(i)] = i
	}
	xs := make([]int, 500_000)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = int(x >> 1)
	}
	slices.Sort(xs)
	hostSink = len(ints) + len(paths) + xs[0]
	return msSince(t)
}
