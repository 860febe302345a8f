package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phaseCfg is one measured phase: a workload run on fresh deployments.
type phaseCfg struct {
	spec spec
	seed int64
	sz   sizes
	// budget is the measured time after which no new deployment starts.
	budget time.Duration
	open   func() (deployment, error)
	tap    *tap // traced phase only
	// probe, when set, is called once the deployment is booted, when the
	// measurement starts and when it ends.
	probe func(d deployment, at probePoint) error
}

type probePoint int

const (
	atBoot probePoint = iota
	atStart
	atEnd
)

// counters are the process-wide costs of an interval.
type counters struct {
	dur                 time.Duration
	cpuNs               int64
	mallocs, allocBytes uint64
	numGC               uint32
	gcPauseNs           uint64
}

// snapshot reads the process-wide cost counters; dur holds the time since
// the epoch.
func snapshot(epoch time.Time) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return counters{
		dur:        time.Since(epoch),
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

// sub returns the costs from o to c.
func (c counters) sub(o counters) counters {
	return counters{
		dur:        c.dur - o.dur,
		cpuNs:      c.cpuNs - o.cpuNs,
		mallocs:    c.mallocs - o.mallocs,
		allocBytes: c.allocBytes - o.allocBytes,
		numGC:      c.numGC - o.numGC,
		gcPauseNs:  c.gcPauseNs - o.gcPauseNs,
	}
}

func (c *counters) add(o counters) {
	c.dur += o.dur
	c.cpuNs += o.cpuNs
	c.mallocs += o.mallocs
	c.allocBytes += o.allocBytes
	c.numGC += o.numGC
	c.gcPauseNs += o.gcPauseNs
}

// deploymentCost is one deployment's measured interval.
type deploymentCost struct {
	units int64 // completed units
	counters
	// refDurNs and refCPUNs are dur and cpuNs in reference time (see
	// calib.go); speed holds each slice's kernel scale factor and avail
	// the share of CPU time the host did not steal from it.
	refDurNs, refCPUNs float64
	speed, avail       []float64
}

// sliceLat is one slice's unit latencies, in reference ns, and the share
// of CPU time the host did not steal during the slice.
type sliceLat struct {
	avail float64
	lat   []int64
}

// phaseResult accumulates a phase over its deployments.
type phaseResult struct {
	attempted, failed, incorrect int64
	slices                       []sliceLat
	deployments                  []deploymentCost
	setup, heapMB                []float64 // per deployment; setup in reference seconds
	stats                        protoStats
	commits, aborts              int64
	sessions                     int
	goroutinesPeak               int // traced phase only
	tapData                      *tapData
}

// watchGoroutines samples the goroutine count every millisecond until the
// returned stop is called; stop returns the largest count seen.
func watchGoroutines() (stop func() int) {
	done, peak := make(chan struct{}), make(chan int, 1)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		m := runtime.NumGoroutine()
		for {
			select {
			case <-done:
				peak <- m
				return
			case <-tick.C:
				m = max(m, runtime.NumGoroutine())
			}
		}
	}()
	return func() int {
		close(done)
		return <-peak
	}
}

func hostName(w int) string { return fmt.Sprintf("bench-w%d", w) }

// runPhase boots fresh deployments, one after another, until their
// measured time reaches the budget. Every deployment runs the same number
// of units, so each ends in the same state (log length, live heap), and
// per-op costs are medians over deployments.
func runPhase(ctx context.Context, pc phaseCfg) (*phaseResult, error) {
	res := &phaseResult{}
	for i := 0; i == 0 || res.total().dur < pc.budget; i++ {
		if err := runDeployment(ctx, pc, res); err != nil {
			return nil, fmt.Errorf("%s deployment %d: %w", pc.spec.name, i, err)
		}
	}
	return res, nil
}

// slices is the number of slices a deployment's units run in, with a
// reference kernel timing between each two.
const slices = 8

func runDeployment(ctx context.Context, pc phaseCfg, res *phaseResult) error {
	runtime.GC() // collect the previous deployment before timing this one
	kBoot := refTime()
	sc := startSteal()
	t0 := time.Now()
	d, err := pc.open()
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	defer d.Close()
	if pc.probe != nil {
		if err := pc.probe(d, atBoot); err != nil {
			return err
		}
	}
	wl := pc.spec.newRun(pc.seed, pc.sz)
	defer wl.close()
	var slots [workers]*atomic.Uint64
	if pc.tap != nil {
		for w := range slots {
			slots[w] = pc.tap.clientHost(hostName(w))
		}
	}
	if err := wl.setup(ctx, d, hostName); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0)
	avail := sc.availShare(setup)
	kSetup := refTime()
	res.setup = append(res.setup, setup.Seconds()*avail*refScale(kBoot, kSetup))

	if pc.probe != nil {
		if err := pc.probe(d, atStart); err != nil {
			return err
		}
	}
	if pc.tap != nil {
		pc.tap.take() // drop the set-up traffic
	}
	statsBefore := wl.stats()
	units := pc.sz.unitsPerWorker(pc.spec)
	var (
		lats  [workers][]int64
		fails [workers]int64
		cost  deploymentCost
	)
	stopWatch := func() int { return 0 }
	if pc.tap != nil {
		stopWatch = watchGoroutines()
	}
	// The units run in slices with a reference kernel timing between
	// them; each slice's times are scaled by the kernel timings on its
	// two sides, and its wall times also by the share of CPU time the
	// host did not steal during it.
	nSlices := min(slices, units)
	kPrev := kSetup
	for sl := 0; sl < nSlices; sl++ {
		lo, hi := sl*units/nSlices, (sl+1)*units/nSlices
		var first [workers]int
		for w := range first {
			first[w] = len(lats[w])
		}
		sc := startSteal()
		before := snapshot(t0)
		pc.runUnits(ctx, wl, hi-lo, slots, &lats, &fails)
		c := snapshot(t0).sub(before)
		avail := sc.availShare(c.dur)
		k := refTime()
		f := refScale(kPrev, k)
		kPrev = k
		cost.add(c)
		cost.refDurNs += f * avail * float64(c.dur)
		cost.refCPUNs += f * float64(c.cpuNs)
		cost.speed = append(cost.speed, f)
		cost.avail = append(cost.avail, avail)
		sLat := sliceLat{avail: avail}
		for w := range lats {
			for _, l := range lats[w][first[w]:] {
				sLat.lat = append(sLat.lat, int64(f*avail*float64(l)))
			}
		}
		res.slices = append(res.slices, sLat)
	}
	res.goroutinesPeak = max(res.goroutinesPeak, stopWatch())

	if pc.tap != nil {
		res.tapData = res.tapData.merge(pc.tap.take())
	}
	if pc.probe != nil {
		if err := pc.probe(d, atEnd); err != nil {
			return err
		}
	}
	st := wl.stats()
	st.sub(statsBefore)
	res.stats.add(st)
	res.sessions += wl.sessions()
	if t, ok := wl.(*transfers); ok {
		c, a := t.outcomes()
		res.commits += c
		res.aborts += a
	}
	for w := 0; w < workers; w++ {
		cost.units += int64(len(lats[w]))
		res.attempted += int64(units)
		res.failed += fails[w]
	}
	res.deployments = append(res.deployments, cost)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = append(res.heapMB, float64(ms.HeapAlloc)/(1<<20))

	bad, err := wl.check(ctx)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	res.incorrect += bad
	return nil
}

// runUnits runs n units on every worker at once and waits for them,
// appending each completed unit's latency to lats.
func (pc phaseCfg) runUnits(ctx context.Context, wl workloadRun, n int, slots [workers]*atomic.Uint64, lats *[workers][]int64, fails *[workers]int64) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				var id uint64
				if pc.tap != nil {
					id = pc.tap.opID.Add(1)
					slots[w].Store(id)
				}
				t := time.Now()
				err := wl.unit(ctx, w)
				end := time.Now()
				if pc.tap != nil {
					slots[w].Store(0)
					pc.tap.opDone(opSpan{id: id, worker: w, start: int64(t.Sub(pc.tap.epoch)), end: int64(end.Sub(pc.tap.epoch))})
				}
				if err != nil {
					fails[w]++
					continue
				}
				lats[w] = append(lats[w], int64(end.Sub(t)))
			}
		}(w)
	}
	wg.Wait()
}

func (s *protoStats) sub(o protoStats) {
	s.fast -= o.fast
	s.synced -= o.synced
	s.slow -= o.slow
	s.retries -= o.retries
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUs is the nearest-rank q-quantile of ns samples, in µs; it
// sorts xs in place.
func percentileUs(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	i = min(max(i, 0), len(xs)-1)
	return float64(xs[i]) / 1e3
}

// quietSlices returns the latencies of the slices the host stole least
// from, pooled: the slices in order of their unstolen share, until they
// hold half of all samples, and every slice tied with the last one taken.
// In a run with no steal that is every slice. A vCPU taken away for
// milliseconds stalls the units in flight whole, which no scale factor
// undoes: in runs where the host stole up to half the CPU time, the p99
// of all units rose by up to 60% while throughput and p50 in reference
// time held.
func (r *phaseResult) quietSlices() (lat []int64, used int) {
	s := append([]sliceLat(nil), r.slices...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].avail > s[j].avail })
	total := 0
	for _, sl := range s {
		total += len(sl.lat)
	}
	if total == 0 {
		return nil, 0
	}
	for _, sl := range s {
		if 2*len(lat) >= total && sl.avail < s[used-1].avail {
			break
		}
		lat = append(lat, sl.lat...)
		used++
	}
	return lat, used
}

// latencyUs is the q-quantile, in µs, of the quiet slices' latencies.
func (r *phaseResult) latencyUs(q float64) float64 {
	lat, _ := r.quietSlices()
	return percentileUs(lat, q)
}

// perOp is the median over deployments of f(cost)/units.
func (r *phaseResult) perOp(f func(d deploymentCost) float64) float64 {
	xs := make([]float64, len(r.deployments))
	for i, d := range r.deployments {
		xs[i] = frac(f(d), float64(d.units))
	}
	return median(xs)
}

// throughput is the median over deployments of units per reference
// second.
func (r *phaseResult) throughput() float64 {
	return 1 / r.perOp(func(d deploymentCost) float64 { return d.refDurNs / 1e9 })
}

func (r *phaseResult) cpuUsPerOp() float64 {
	return r.perOp(func(d deploymentCost) float64 { return d.refCPUNs / 1e3 })
}

// sliceRange is the 10th and 90th percentile over the slices of f(d):
// with deploymentCost.speed, how far the host's speed strayed from the
// reference; with deploymentCost.avail, how much it stole.
func (r *phaseResult) sliceRange(f func(d deploymentCost) []float64) (lo, hi float64) {
	var xs []float64
	for _, d := range r.deployments {
		xs = append(xs, f(d)...)
	}
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/10], xs[len(xs)*9/10]
}

func (r *phaseResult) allocsPerOp() float64 {
	return r.perOp(func(c deploymentCost) float64 { return float64(c.mallocs) })
}

func (r *phaseResult) allocBytesPerOp() float64 {
	return r.perOp(func(c deploymentCost) float64 { return float64(c.allocBytes) })
}

// total sums the deployments' units and costs.
func (r *phaseResult) total() deploymentCost {
	var t deploymentCost
	for _, d := range r.deployments {
		t.units += d.units
		t.add(d.counters)
		t.refDurNs += d.refDurNs
		t.refCPUNs += d.refCPUNs
	}
	return t
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
