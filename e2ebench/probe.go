package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: how much work one of its
// CPUs does in a second changes as neighbours come and go, by a quarter
// or more from second to second and by up to 2× over an hour, and the
// program's throughput, latency and CPU per query change with it. To
// keep runs of the same code comparable, a probe times a fixed
// reference computation throughout the closed loop, and a run reports
// its times as they would be on a reference host, one on which that
// computation takes probeReference. The computation is the benchmark's
// own code, so a change to the program under test never changes it. It
// is timed in its thread's CPU time, which does not count the time the
// probe waits while the daemons hold the CPUs, and which the kernel
// keeps to the nanosecond (the per-thread times getrusage reports tick
// in 4 ms steps).

// probeReference is the reference computation's CPU time on the
// reference host (about its time alongside the fresh load on a 2-core
// Xeon VM at its usual speed).
const probeReference = 800 * time.Microsecond

// The probe runs the reference computation, probeSteps training steps
// of a small neural network (the same kind of arithmetic as the nodes'
// NN fits), once every probeEvery: under 2% of one CPU.
const (
	probeSteps = 2
	probeEvery = 50 * time.Millisecond
)

// probe times the reference computation while the load runs.
type probe struct {
	stop  chan struct{}
	done  chan struct{}
	times []time.Duration
}

// startProbe starts a probe; finish stops it.
func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// Pinned to its thread, the thread's CPU time is the probe's.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		net := newRefNet()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			probeSink = net.train(i % 8)
			p.times = append(p.times, threadCPU()-t0)
		}
	}()
	return p
}

// finish stops the probe and returns its timings.
func (p *probe) finish() []time.Duration {
	close(p.stop)
	<-p.done
	return p.times
}

// probeSink keeps the reference computation's result live.
var probeSink float64

// hostFactor is how much slower than the reference host the probe's
// timings ran: their mean, without the fastest and slowest tenth, over
// probeReference. Divide a time measured alongside them by it to get
// the reference host's. The mean, not the median, because the load
// runs at the average of the host's speeds.
func hostFactor(ts []time.Duration) float64 {
	if len(ts) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), ts...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	var sum time.Duration
	for _, t := range s {
		sum += t
	}
	return float64(sum) / float64(len(s)) / float64(probeReference)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // every Linux since 2.6.12 has this clock
	}
	return time.Duration(ts.Nano())
}

// refNet is the reference computation's network and batch, allocated
// once so that the timed part allocates nothing and no garbage
// collection lands in one timing and not another.
type refNet struct {
	w1, w2, x, y, h, g1, g2 []float64
}

const refIn, refHidden, refBatch = 8, 64, 128

func newRefNet() *refNet {
	n := &refNet{
		w1: make([]float64, refIn*refHidden), w2: make([]float64, refHidden),
		x: make([]float64, refBatch*refIn), y: make([]float64, refBatch),
		h: make([]float64, refBatch*refHidden), g1: make([]float64, refIn*refHidden), g2: make([]float64, refHidden),
	}
	for i := range n.x {
		n.x[i] = math.Sin(float64(3*i + 1))
	}
	for i := range n.y {
		n.y[i] = math.Cos(float64(i))
	}
	return n
}

// train resets the 8-64-1 tanh network's weights from seed, trains it
// by SGD on the fixed batch for probeSteps steps and returns its final
// loss.
func (n *refNet) train(seed int) float64 {
	const in, hid, batch = refIn, refHidden, refBatch
	for i := range n.w1 {
		n.w1[i] = math.Sin(float64(i+seed)) * 0.3
	}
	for i := range n.w2 {
		n.w2[i] = math.Cos(float64(i+seed)) * 0.3
	}
	w1, w2, x, y, h, g1, g2 := n.w1, n.w2, n.x, n.y, n.h, n.g1, n.g2
	loss := 0.0
	for step := 0; step < probeSteps; step++ {
		clear(g1)
		clear(g2)
		loss = 0
		for b := 0; b < batch; b++ {
			xb, hb := x[b*in:(b+1)*in], h[b*hid:(b+1)*hid]
			out := 0.0
			for j := 0; j < hid; j++ {
				s := 0.0
				for k := 0; k < in; k++ {
					s += xb[k] * w1[k*hid+j]
				}
				hb[j] = math.Tanh(s)
				out += hb[j] * w2[j]
			}
			d := out - y[b]
			loss += d * d
			for j := 0; j < hid; j++ {
				g2[j] += d * hb[j]
				dh := d * w2[j] * (1 - hb[j]*hb[j])
				for k := 0; k < in; k++ {
					g1[k*hid+j] += dh * xb[k]
				}
			}
		}
		for i := range w1 {
			w1[i] -= 0.01 * g1[i] / batch
		}
		for i := range w2 {
			w2[i] -= 0.01 * g2[i] / batch
		}
	}
	return loss / batch
}
