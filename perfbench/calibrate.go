package main

import (
	"runtime"
	"time"
)

// The host this benchmark runs on shares its cores with other tenants,
// and its speed drifts over minutes, at times by 1.7x (README.md). The
// timed run therefore runs a fixed kernel after every pass and scales
// each wall-time metric by calRef over the kernel's median wall time in
// the run, and CPU time by calRef over the kernel's median CPU time: a
// time is reported in seconds of a host running the kernel in calRef.
// CPU time leaves out the moments the host holds the VM's CPU, which wall
// time includes, so each kind is scaled by its own kind.
// The kernel is the harness's own code, so a change to the simulator
// cannot move it.

// calRef is the kernel's time on the reference host (see README.md).
const calRef = 200 * time.Millisecond

const (
	calEvents = 1 << 16 // 4 MiB of events: beyond L2, like the simulator's queues
	calOps    = 600_000
)

// calEvent mirrors the simulator's event: an ordering key and a payload,
// reached through an index as the heap reaches events through pointers.
type calEvent struct {
	at  int64
	seq uint64
	_   [6]uint64
}

// calibrate runs the kernel and returns its wall and CPU time: calOps pops and
// re-pushes on a binary min-heap of calEvent indexes. Its arrays are
// allocated before the clock starts and dropped on return, so they never
// add to a pass's resident set, and the timed loop allocates nothing.
// A full collection precedes the loop, so the simulator's heap cannot
// change its speed.
func calibrate() (wall, cpu time.Duration) {
	queue := make([]calEvent, calEvents)
	h := make([]int32, calEvents)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() int64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int64(rng % 1_000_000)
	}
	for i := range queue {
		queue[i] = calEvent{at: next(), seq: uint64(i)}
		h[i] = int32(i)
	}
	less := func(a, b int32) bool {
		ea, eb := &queue[a], &queue[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		return ea.seq < eb.seq
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		calDown(h, i, less)
	}
	runtime.GC()
	cpu0, start := cpuTime(), time.Now()
	seq := uint64(len(h))
	for op := 0; op < calOps; op++ {
		// Pop the earliest event and schedule it again later.
		e := &queue[h[0]]
		seq++
		e.at += 1 + next()
		e.seq = seq
		calDown(h, 0, less)
	}
	return time.Since(start), cpuTime() - cpu0
}

func calDown(h []int32, i int, less func(a, b int32) bool) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && less(h[r], h[l]) {
			m = r
		}
		if !less(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
