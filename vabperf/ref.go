package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// A benchmark host is often a few cores of a shared machine: a
// neighbour's load slows whatever runs beside it, wall and CPU time
// alike, by up to 2× for seconds to minutes — longer than a run, so
// neither longer runs nor medians or best times within a run remove it.
// The benchmark therefore times a fixed reference kernel, owned by the
// benchmark and untouched by any change to the program, after each
// stretch of a workload's work — in proportion to the stretch's length —
// and reports the work's wall time divided by the host's slowdown over
// the run. A change to the program moves the scaled time as it moves the
// wall time; a neighbour's load moves both the wall time and the kernel,
// and the quotient stays. Raw wall times and the slowdown are in the
// record's samples.
//
// A neighbour slows code by what it shares with it: arithmetic units
// slow the waveform tier's DSP, caches and memory the fleets' node
// columns and the allocator. The kernel has a half of each — a complex
// multiply-accumulate sweep over an L2-resident buffer, and a chain of
// dependent loads across a buffer four times L2 — and the slowdown is
// the mean of the two halves' slowdowns, each half's mean time ÷ its
// nominal time. On the 2-vCPU Xeon host the bounds were set on, that
// mean tracked the three compute-bound workloads' slowdowns together
// better than either half alone: the calibration follows the sweep, the
// waveform fleet the mean, and the abstract fleet slows about half as
// much as either.

// sweepNominal and chaseNominal are the halves' times on an unloaded
// core of the host the bounds were set on (an Intel Xeon vCPU); scaled
// times read as wall times on such a core.
const (
	sweepNominal = 200 * time.Microsecond
	chaseNominal = 400 * time.Microsecond
)

// computeBufLen sizes the sweep's buffer: 64 KiB of complex128.
// chaseLen and chaseSteps shape the chain: a random cycle through 16 MiB
// of indices, 2,048 dependent loads a call, each call starting at another
// node, so the loads keep missing the caches.
const (
	computeBufLen = 4096
	chaseLen      = 1 << 22
	chaseSteps    = 2048
)

var (
	refSink     atomic.Uint64
	computeBufs = sync.Pool{New: func() any { return make([]complex128, computeBufLen) }}
	chaseOnce   sync.Once
	chaseNext   []uint32
	chasePos    atomic.Uint32
)

// initRef builds the chase cycle, outside the Go heap so heap_peak_mb
// does not count it. run calls it before a workload times anything.
func initRef() {
	chaseOnce.Do(func() {
		mem, err := syscall.Mmap(-1, 0, 4*chaseLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(err)
		}
		chaseNext = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseLen)
		for i := range chaseNext {
			chaseNext[i] = uint32(i)
		}
		rng := rand.New(rand.NewSource(1))
		for i := chaseLen - 1; i > 0; i-- { // Sattolo: one cycle through all
			j := rng.Intn(i)
			chaseNext[i], chaseNext[j] = chaseNext[j], chaseNext[i]
		}
	})
}

// refKernel runs the reference kernel once and returns its halves' wall
// times. It allocates nothing, so it never pays for the workload's
// garbage.
func refKernel() (sweep, chase time.Duration) {
	initRef()
	buf := computeBufs.Get().([]complex128)
	t := time.Now()
	clear(buf)
	w := complex(0.9999, 0.0001)
	var acc complex128
	for rep := 0; rep < 20; rep++ {
		for i := range buf {
			buf[i] = buf[i]*w + complex(float64(i), 1)
			acc += buf[i] * complex(real(buf[i]), -imag(buf[i]))
		}
	}
	t1 := time.Now()
	j := chasePos.Add(chaseSteps+1) % chaseLen
	for k := 0; k < chaseSteps; k++ {
		j = chaseNext[j]
	}
	t2 := time.Now()
	refSink.Add(math.Float64bits(real(acc)) + uint64(j))
	computeBufs.Put(buf)
	return t1.Sub(t), t2.Sub(t1)
}

// refMeter accumulates reference kernel times taken beside a stretch of
// work.
type refMeter struct {
	mu           sync.Mutex
	sweep, chase time.Duration
	n            int
}

// sample times the kernel k times on the calling goroutine.
func (m *refMeter) sample(k int) {
	for i := 0; i < k; i++ {
		sw, ch := refKernel()
		m.mu.Lock()
		m.sweep += sw
		m.chase += ch
		m.n++
		m.mu.Unlock()
	}
}

// sampleAll times the kernel k times on each of nproc goroutines at
// once, so it sees every core a parallel workload runs on.
func (m *refMeter) sampleAll(k int) {
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.sample(k)
		}()
	}
	wg.Wait()
}

// spent returns the time the samples took so far.
func (m *refMeter) spent() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweep + m.chase
}

// slowdown returns the host's slowdown over the samples (1 without
// samples).
func (m *refMeter) slowdown() float64 {
	sw, ch := m.halves()
	return (sw + ch) / 2
}

// halves returns the sweep's and the chase's slowdowns.
func (m *refMeter) halves() (sweep, chase float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return 1, 1
	}
	n := float64(m.n)
	return float64(m.sweep) / n / float64(sweepNominal), float64(m.chase) / n / float64(chaseNominal)
}

// refsPerSetup is how many reference samples follow each set-up.
const refsPerSetup = 4

// refEvery is how much work one reference sample stands for: a stretch
// of work of length d is followed by refCount(d) samples, so that the
// samples weigh each stretch by its length, as the wall time does.
const refEvery = 40 * time.Millisecond

func refCount(d time.Duration) int { return max(1, int(d/refEvery)) }

// scaledSetup returns a set-up time d in s, scaled by the slowdown that
// refsPerSetup reference samples taken right after it see.
func scaledSetup(d time.Duration) float64 {
	var m refMeter
	m.sampleAll(refsPerSetup)
	return d.Seconds() / m.slowdown()
}
