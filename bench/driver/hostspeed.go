package main

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed
// drifts with its other tenants: within ten minutes the same fleet
// answered between 61 and 88 requests a second, and the servers'
// processor time per request rose exactly as their throughput fell
// (their product stayed within 3%): the cores themselves get slower —
// a busy sibling thread, a shared cache and memory bus — and no
// statistic inside a run removes that. So the driver measures the
// processor time of a fixed piece of its own work, the probe, between
// the rounds of a window and after every set-up, and reports times and
// rates as they would be on a host on which the probe takes
// referenceProbeMs. The probe is the driver's code, not the
// repository's: no change to Quarry moves it.
//
// It is processor time, not wall time, that the probe takes: the wall
// time of so short a piece of work also holds the wake-up of its
// threads and whatever the servers' collectors still do, and followed
// the servers' throughput less closely (slope 0.8 to 0.9 against 1.0
// to 1.1, see bench/README.md). What the correction cannot see is a
// core taken away altogether; the median over rounds absorbs that when
// it is short.

// referenceProbeMs is the processor time per core one probe takes on
// the reference box (two vCPUs of a shared Xeon 2.1 GHz host) while its
// neighbours are quiet.
const referenceProbeMs = 14.0

// Probe sizes (about 9 ms of arithmetic and 5 ms of map work on the
// reference box) and cadence: two probes a second take 3% of a window.
const (
	probeEvery    = 500 * time.Millisecond
	probeALUIters = 6_000_000
	probeMapIters = 40_000
	probeMapKeys  = 4000
)

var (
	probeCores = runtime.NumCPU()
	probeSink  atomic.Uint64 // keeps the probe's results alive
)

// probeWork is the probe's work on one core: four independent
// arithmetic chains (as sensitive to a busy sibling thread as real
// code is, where a single dependent chain is not), then what a query
// does — string keys built, a map filled and probed, groups allocated
// and summed.
func probeWork() {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < probeALUIters; i++ {
		a = a*6364136223846793005 + 1
		b = b*2862933555777941757 + 3
		c ^= c<<13 + uint64(i)
		d += d>>7 ^ uint64(i)
	}
	dim := make(map[string]int, probeMapKeys)
	for i := 0; i < probeMapKeys; i++ {
		dim["key"+strconv.Itoa(i)] = i % 25
	}
	type group struct {
		sum float64
		n   int
	}
	groups := map[string]*group{}
	x := uint64(99)
	for i := 0; i < probeMapIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		name := "g" + strconv.Itoa(dim["key"+strconv.Itoa(int((x>>33)%probeMapKeys))])
		g := groups[name]
		if g == nil {
			g = &group{}
			groups[name] = g
		}
		g.sum += float64(x & 63)
		g.n++
	}
	probeSink.Add(a + b + c + d + uint64(len(groups)))
}

// selfCPUMs is the processor time the driver has used so far.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // the arguments are constant: cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// probeHost runs the probe's work on every core at once, as the
// servers run, and returns the processor time it took per core, in
// milliseconds. Nothing else runs in the driver meanwhile.
func probeHost() float64 {
	var wg sync.WaitGroup
	start := selfCPUMs()
	for i := 0; i < probeCores; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeWork()
		}()
	}
	wg.Wait()
	return (selfCPUMs() - start) / float64(probeCores)
}

// refTime converts a time measured while the probe took probeMs into
// the time it would be at the reference host speed; refRate does the
// same for a rate.
func refTime(v, probeMs float64) float64 { return v * referenceProbeMs / probeMs }
func refRate(v, probeMs float64) float64 { return v * probeMs / referenceProbeMs }
