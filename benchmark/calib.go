package main

import (
	"runtime"
	"sync"
	"time"
)

// Host speed calibration. On a shared host the machine's speed drifts by
// 10-20% over tens of seconds, and the end-to-end times drift with it: on a
// 2-vCPU VM, the run medians of the pass times of facility, paper and io
// correlated 0.91-0.95 with those of the fixed loop below. Each run
// therefore times the loop in the parent, while no child runs, and reports
// end-to-end times at the speed at which the loop takes calibRef:
// reference-host seconds. The loop is benchmark code, so a change to the
// simulator cannot move it.

// calibRef is the loop's median time on the reference host recorded in
// baseline.json.
const calibRef = 0.040

// calibEdge is the number of loops timed before a run's first sample and
// after its last, besides the one before each sample.
const calibEdge = 10

// calibrate times one loop on every CPU at once and returns its seconds.
func calibrate() float64 {
	out := make([]float64, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = calibWork()
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, v := range out {
		calibSink += v
	}
	return d
}

// calibSink keeps the loop's result live, so the compiler cannot drop it.
var calibSink float64

type calibNode struct {
	next *calibNode
	v    [6]float64
}

// calibWork is one share of the loop: goroutine handoffs over unbuffered
// channels (the engine's baton), map updates, small allocations for the
// garbage collector, a float stencil (xpic) and buffer copies (beegfs,
// sion).
func calibWork() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	acc := 0
	for i := range 16000 {
		ping <- i
		acc += <-pong
	}
	close(ping)

	m := map[int]int{}
	for i := range 160000 {
		m[(i*7919)%20011] += i
	}

	var list *calibNode
	for i := range 160000 {
		list = &calibNode{next: list}
		list.v[i%6] = float64(i)
		if i%1000 == 0 {
			list = nil
		}
	}

	field := make([]float64, 1<<14)
	for i := range field {
		field[i] = float64(i % 17)
	}
	for range 80 {
		for i := 1; i < len(field)-1; i++ {
			field[i] = 0.25*field[i-1] + 0.5*field[i] + 0.25*field[i+1]
		}
	}

	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	for range 64 {
		copy(dst, src)
		src[len(src)-1]++
	}
	return float64(acc+len(m)+int(dst[len(dst)-1])) + field[len(field)/2]
}
