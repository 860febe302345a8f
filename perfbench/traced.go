package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"curp/internal/transport"
)

// metricSet is the metrics block of the result line, keyed by name.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) put(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// endToEnd fills the user-visible metrics from a measured phase.
func endToEnd(m metricSet, r *phaseResult) {
	m.put("throughput_ops", r.throughput(), "1/s")
	m.put("latency_p50_us", r.latencyUs(0.50), "us")
	m.put("latency_p99_us", r.latencyUs(0.99), "us")
	m.put("cpu_us_per_op", r.cpuUsPerOp(), "us")
	m.put("allocs_per_op", r.allocsPerOp(), "count")
	m.put("alloc_bytes_per_op", r.allocBytesPerOp(), "B")
	m.put("heap_live_mb", median(r.heapMB), "MB")
	m.put("fastpath_frac", frac(float64(r.stats.fast), float64(r.stats.updates())), "ratio")
	bad := float64(r.failed + r.incorrect)
	m.put("success_frac", 1-frac(bad, float64(r.attempted)), "ratio")
	m.put("setup_s", median(r.setup), "s")
}

// tracedRun measures the per-layer metrics of one workload in four
// phases: the untraced public stack (the overhead baseline), the same
// topology built from the internal constructors on a tapped network, the
// public stack with tracing and events off (the observability pair), and
// a standalone replay of the generated commands into the store and a
// witness.
func tracedRun(ctx context.Context, s spec, seed int64, sz sizes, seconds float64, outDir string) (metricSet, *phaseResult, error) {
	budget := time.Duration(seconds * float64(time.Second))
	live := budget * 3 / 10

	base, err := runPhase(ctx, phaseCfg{spec: s, seed: seed, sz: sz, budget: live,
		open: func() (deployment, error) { return openPublic(s.opts) }})
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: %w", err)
	}

	tp := newTap(transport.NewMemNetwork(nil))
	// Program-owned counts, summed over the measured intervals; control
	// log entries are counted from boot, so they include the set-up
	// sessions.
	var (
		boot, start promSnapshot
		counts      = make(promSnapshot)
		ctrlEntries float64
	)
	const committed = "curp_coord_log_committed_total"
	traced, err := runPhase(ctx, phaseCfg{spec: s, seed: seed, sz: sz, budget: live, tap: tp,
		open: func() (deployment, error) { return openInternal(tp, s.opts) },
		probe: func(d deployment, at probePoint) error {
			snap, err := scrape(d)
			switch at {
			case atBoot:
				boot = snap
			case atStart:
				start = snap
			case atEnd:
				counts.add(snap.delta(start))
				ctrlEntries += snap.max(committed) - boot.max(committed)
			}
			return err
		}})
	if err != nil {
		return nil, nil, fmt.Errorf("traced: %w", err)
	}

	quietOpts := s.opts
	quietOpts.DisableTracing, quietOpts.DisableEvents = true, true
	quiet, err := runPhase(ctx, phaseCfg{spec: s, seed: seed, sz: sz, budget: live,
		open: func() (deployment, error) { return openPublic(quietOpts) }})
	if err != nil {
		return nil, nil, fmt.Errorf("observability-off: %w", err)
	}

	store, wit, err := replayLayers(s, seed, sz, internalOptions(s.opts).Witness, budget/10)
	if err != nil {
		return nil, nil, err
	}

	m := make(metricSet)
	units := float64(traced.total().units)
	td := traced.tapData
	var bytes int64
	for i, f := range families {
		fs := &td.fams[i]
		bytes += fs.bytes
		m.put("rpc."+f+".calls_per_op", frac(float64(fs.calls), units), "count")
		m.put("rpc."+f+".bytes_per_op", frac(float64(fs.bytes), units), "B")
		m.put("rpc."+f+".rtt_us_p50", percentileUs(fs.rtt, 0.5), "us")
		m.put("rpc."+f+".server_us_p50", percentileUs(fs.server, 0.5), "us")
	}
	m.put("transport.msgs_per_op", frac(float64(td.msgs), units), "count")
	m.put("transport.bytes_per_op", frac(float64(bytes), units), "B")
	m.put("runtime.goroutines_peak", float64(traced.goroutinesPeak), "count")

	led := ledger(td)
	m.put("client.self_us_p50", led.selfP50, "us")
	m.put("client.rpc_wait_us_p50", led.waitP50, "us")
	m.put("trace.residue_frac", led.residueFrac, "ratio")
	m.put("trace.overhead_frac", 1-frac(traced.throughput(), base.throughput()), "ratio")

	st := traced.stats
	m.put("core.fastpath_frac", frac(float64(st.fast), float64(st.updates())), "ratio")
	m.put("core.slowpath_frac", frac(float64(st.slow), float64(st.updates())), "ratio")
	m.put("core.retries_per_op", frac(float64(st.retries), units), "count")

	d := counts
	m.put("master.conflict_syncs_per_op", frac(d.sum("curp_master_conflict_syncs_total"), units), "count")
	m.put("master.ops_per_backup_sync", frac(d.sum("curp_master_sync_batch_entries_sum"), d.sum("curp_master_sync_batch_entries_count")), "count")
	m.put("witness.rejects_per_op", frac(d.sum("curp_witness_rejects_total"), units), "count")
	m.put("txn.abort_frac", frac(float64(traced.aborts), float64(traced.commits+traced.aborts)), "ratio")
	m.put("txn.lock_wait_us_p50", d.quantile("curp_txn_lock_wait_seconds", 0.5)*1e6, "us")
	m.put("controlplane.entries_per_session", frac(ctrlEntries, float64(traced.sessions)), "count")

	m.put("kv.apply_ns_per_op", store.nsPerOp, "ns")
	m.put("kv.apply_allocs_per_op", store.allocsPerOp, "count")
	m.put("witness.record_ns_per_op", wit.nsPerOp, "ns")
	m.put("witness.record_allocs_per_op", wit.allocsPerOp, "count")

	m.put("observability.cpu_us_per_op", base.cpuUsPerOp()-quiet.cpuUsPerOp(), "us")
	m.put("observability.allocs_per_op", base.allocsPerOp()-quiet.allocsPerOp(), "count")
	m.put("runtime.gc_per_kop", base.perOp(func(c deploymentCost) float64 { return float64(c.numGC) * 1000 }), "count")
	m.put("runtime.gc_pause_us_per_op", base.perOp(func(c deploymentCost) float64 { return float64(c.gcPauseNs) / 1e3 }), "us")

	if err := writeSpans(filepath.Join(outDir, "spans-"+s.name+".jsonl"), td); err != nil {
		return nil, nil, err
	}

	// The result line's counts cover every live phase.
	all := &phaseResult{}
	for _, r := range []*phaseResult{base, traced, quiet} {
		all.attempted += r.attempted
		all.failed += r.failed
		all.incorrect += r.incorrect
	}
	return m, all, nil
}

// opLedger splits client op time into self time and RPC wait.
type opLedger struct {
	selfP50, waitP50 float64 // µs
	// residueFrac is the share of op time covered neither by the op's self
	// time nor by its RPC critical path.
	residueFrac float64
}

func ledger(td *tapData) opLedger {
	children := make(map[uint64][]interval)
	for _, r := range td.rpcs {
		if r.parent != 0 {
			children[r.parent] = append(children[r.parent], interval{r.start, r.end})
		}
	}
	var self, wait []int64
	var total, residue int64
	for _, op := range td.ops {
		ivs := children[op.id]
		dur := op.end - op.start
		s := selfTime(ivs, op.start, op.end)
		self = append(self, s)
		wait = append(wait, dur-s)
		total += dur
		residue += dur - s - criticalPath(ivs, op.start, op.end)
	}
	return opLedger{
		selfP50:     percentileUs(self, 0.5),
		waitP50:     percentileUs(wait, 0.5),
		residueFrac: frac(float64(residue), float64(total)),
	}
}

// writeSpans writes every op and RPC span as one JSON object per line:
// ops first, then RPCs ordered by start, times in ns since the tap's
// epoch.
func writeSpans(path string, td *tapData) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, op := range td.ops {
		fmt.Fprintf(w, `{"span":"op","id":%d,"worker":%d,"start":%d,"end":%d}`+"\n", op.id, op.worker, op.start, op.end)
	}
	sort.Slice(td.rpcs, func(i, j int) bool { return td.rpcs[i].start < td.rpcs[j].start })
	for _, r := range td.rpcs {
		fmt.Fprintf(w, `{"span":"rpc.%s","parent":%d,"start":%d,"end":%d,"bytes":%d}`+"\n", families[r.fam], r.parent, r.start, r.end, r.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
