package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark times work in CPU time, not on the wall clock. The
// hypervisor of a shared VM takes a vCPU away for milliseconds at a time:
// one exp3 replay took 123 ms on the wall clock for 67 ms of CPU time, and
// over six minutes its CPU time ranged from 54 to 68 ms while its wall time
// ranged from 53 to 123 ms. That stolen time is neither the program's nor
// steady.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clock(id uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", id, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// checkClocks reports whether the system offers the CPU-time clocks. Once
// it has, readClock cannot fail.
func checkClocks() error {
	for _, id := range []uintptr{clockProcessCPUTime, clockThreadCPUTime} {
		if _, err := clock(id); err != nil {
			return err
		}
	}
	return nil
}

func readClock(id uintptr) time.Duration {
	d, err := clock(id)
	if err != nil {
		panic(fmt.Sprintf("after checkClocks: %v", err))
	}
	return d
}

// cpuTime is the CPU time of the whole process: all threads, user and
// system. It counts what an op costs wherever it runs: the garbage
// collector's workers and, on report-loop, the intake server's goroutines
// and the loopback network stack.
func cpuTime() time.Duration { return readClock(clockProcessCPUTime) }

// stopwatch times one op on both clocks.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// stop returns the CPU time and the wall time since start.
func (s stopwatch) stop() (cpu, wall time.Duration) {
	return cpuTime() - s.cpu, time.Since(s.wall)
}

// A cloud VM shares its cores with other tenants, and its speed drifts by
// 20-35% over minutes: on a 2-vCPU Xeon VM, an exp3 replay took 41 ms in
// one run and 55 ms in the next, and its CPU time moved with it. A fixed
// computation that shares no code with pathlog drifts in step (over six
// runs the replay/computation ratio moved by 5% where each moved by 35%),
// so the benchmark times that computation throughout the run and reports
// every time at the speed the machine has when it takes refNominal.
const (
	refNominal  = time.Millisecond
	refInterval = 50 * time.Millisecond // between samples inside a window
	refRounds   = 20000                 // sized for about 1 ms on a 2-core cloud VM
)

// speedRef samples the reference computation. It allocates nothing after
// construction, so it neither triggers garbage collection nor pays for it.
type speedRef struct {
	table   map[uint32]uint32
	keys    []uint32
	buf     []byte
	samples []float64     // ms
	spent   time.Duration // wall time in samples
	cpu     time.Duration // process CPU time in samples
	last    time.Time
	sink    byte
}

func newSpeedRef() *speedRef {
	return &speedRef{
		table: make(map[uint32]uint32, 4096),
		keys:  make([]uint32, 4096),
		buf:   make([]byte, 4*4096),
	}
}

// run performs the reference computation once: hashing into a small map,
// sorting, and SHA-256 over the sorted keys.
func (r *speedRef) run() {
	clear(r.table)
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < refRounds; i++ {
		r.table[uint32(next()%4096)] += uint32(i)
	}
	for i := range r.keys {
		r.keys[i] = uint32(next()) ^ r.table[uint32(i)]
	}
	slices.Sort(r.keys)
	for i, k := range r.keys {
		binary.LittleEndian.PutUint32(r.buf[4*i:], k)
	}
	sum := sha256.Sum256(r.buf)
	r.sink ^= sum[0]
}

// sample times one run of the reference computation in the CPU time of
// its thread, so that a garbage collector worker running on the other
// core is not counted.
func (r *speedRef) sample() {
	runtime.LockOSThread()
	start, cpu := time.Now(), cpuTime()
	t := readClock(clockThreadCPUTime)
	r.run()
	d := readClock(clockThreadCPUTime) - t
	r.cpu += cpuTime() - cpu
	r.spent += time.Since(start)
	runtime.UnlockOSThread()
	r.samples = append(r.samples, float64(d.Nanoseconds())/1e6)
	r.last = time.Now()
}

// tick samples when refInterval has passed since the last sample, and
// reports whether it did.
func (r *speedRef) tick() bool {
	if time.Since(r.last) < refInterval {
		return false
	}
	r.sample()
	return true
}

// burst takes a few samples at once, around phases too long to tick in.
func (r *speedRef) burst() {
	for i := 0; i < 5; i++ {
		r.sample()
	}
}

// reset drops the samples, so the window is scaled by samples taken
// inside it only.
func (r *speedRef) reset() {
	r.samples, r.spent, r.cpu = nil, 0, 0
}

// scale converts a time measured in this run to the nominal machine speed:
// refNominal over the median reference time.
func (r *speedRef) scale() float64 {
	return float64(refNominal.Nanoseconds()) / 1e6 / median(r.samples)
}
