package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and the speed of its vCPUs
// changes with the load of its other tenants: a fixed single-threaded
// loop on a 2-vCPU guest took from 0.6 to 1.0 of its slowest time from
// one half second to the next, with no steal time, and runs of the same
// code drift by as much over minutes. Every timing metric is therefore
// measured against a fixed reference kernel timed between slices of the
// workload, and reported as the time the host would have taken at the
// kernel's nominal speed: measured × refNominal / kernel time.
//
// The kernel is timed in thread CPU time and does not allocate, so the
// deployment's own background work (its goroutines, a GC cycle in
// progress) does not slow it: only the host's speed does.
//
// The host also takes whole vCPUs away from the guest (steal time): in
// one minute of a run, throughput halved while CPU time per op and the
// kernel rose by only a fifth. Wall times are therefore also scaled by
// the share of the guest's CPU time the host did not steal during the
// measurement (see availShare).

// refNominal is the reference kernel's nominal CPU time per thread,
// about its time on an unloaded 2.0 GHz Xeon vCPU. It only sets the
// scale of the reported times.
const refNominal = 2500 * time.Microsecond

const (
	refRounds = 2
	refMem    = 4 << 20 // bytes each thread streams through, past the L2
	refKeys   = 4096
)

// refState is one kernel thread's working set, allocated once.
type refState struct {
	mem []byte
	buf []byte
	m   map[uint64]uint64
}

var (
	refOnce   sync.Once
	refStates [workers]*refState
	refSink   [workers]uint64
)

func initRef() {
	for i := range refStates {
		// The buffer lives outside the Go heap so that it does not change
		// heap_live_mb or the GC's pacing.
		mem, err := syscall.Mmap(-1, 0, refMem, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(err) // a 4 MiB anonymous mapping
		}
		s := &refState{mem: mem, buf: make([]byte, 4096), m: make(map[uint64]uint64, refKeys)}
		for j := range s.mem {
			s.mem[j] = byte(j * 31)
		}
		for k := uint64(0); k < refKeys; k++ {
			s.m[k] = k
		}
		refStates[i] = s
	}
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// refRun is one thread's share of the kernel: it copies 4 KiB blocks out
// of its buffer, hashes them (FNV-1a) and updates a map with the hashes,
// and returns the thread CPU time that took.
func refRun(s *refState) (time.Duration, uint64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := threadCPU()
	h := uint64(14695981039346656037)
	for r := 0; r < refRounds; r++ {
		for off := 0; off+len(s.buf) <= len(s.mem); off += len(s.buf) {
			copy(s.buf, s.mem[off:])
			for _, b := range s.buf[:512] {
				h = (h ^ uint64(b)) * 1099511628211
			}
			s.m[h%refKeys] += h
		}
	}
	return threadCPU() - t, h
}

// refKernel runs the kernel on one thread per client goroutine at once
// and returns the mean thread CPU time.
func refKernel() time.Duration {
	refOnce.Do(initRef)
	var (
		wg sync.WaitGroup
		ds [workers]time.Duration
	)
	for i := range ds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var h uint64
			ds[i], h = refRun(refStates[i])
			refSink[i] += h
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / workers
}

// refTime is the median of three kernel runs.
func refTime() time.Duration {
	ts := []time.Duration{refKernel(), refKernel(), refKernel()}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[1]
}

// refScale is the factor that turns a time measured between two kernel
// timings a and b into reference time.
func refScale(a, b time.Duration) float64 {
	return 2 * float64(refNominal) / float64(a+b)
}

// userHZ is the unit of /proc/stat's times: USER_HZ, 100 on Linux.
const userHZ = 100

// stealTime is the guest's stolen time summed over its CPUs, and the
// number of CPUs, from /proc/stat; ok is false where that is not
// available, and then no correction is made.
func stealTime() (stolen time.Duration, cpus int, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		f := bytes.Fields(line)
		switch {
		case len(f) > 8 && string(f[0]) == "cpu":
			j, err := strconv.ParseInt(string(f[8]), 10, 64)
			if err != nil {
				return 0, 0, false
			}
			stolen = time.Duration(j) * time.Second / userHZ
		case len(f) > 0 && bytes.HasPrefix(f[0], []byte("cpu")):
			cpus++
		}
	}
	return stolen, cpus, cpus > 0
}

// stealClock marks the start of a wall-time measurement.
type stealClock struct {
	stolen time.Duration
	ok     bool
}

func startSteal() stealClock {
	s, _, ok := stealTime()
	return stealClock{s, ok}
}

// availShare is the share of the guest's CPU time that the host did not
// steal over wall, the time since c: a wall time times it is the time
// the work would have taken with its vCPUs never taken away. /proc/stat
// counts in 10 ms ticks, so over a 200 ms slice on 2 vCPUs one tick is
// 2.5%; the error averages out over a deployment's slices.
func (c stealClock) availShare(wall time.Duration) float64 {
	s, cpus, ok := stealTime()
	if !c.ok || !ok || wall <= 0 {
		return 1
	}
	return min(1, max(0.05, 1-float64(s-c.stolen)/(float64(cpus)*float64(wall))))
}
