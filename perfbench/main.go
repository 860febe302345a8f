// Command perfbench is the repository's benchmark. It runs one of four
// named closed-loop workloads against the real CURP stack on the
// in-memory network (zero injected delay, so latency is processor time),
// checks the results, and prints one JSON result line last.
//
//	bash perfbench/run.sh --workload put_sync --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it drives the public curp API and reports the end-to-end
// metrics; with --trace 1 it reports the per-layer metrics of the same
// workload (see tracedRun). The end-to-end times are reference times:
// scaled by a fixed kernel timed between slices of the run, so that the
// shared host's changing speed cancels out (see calib.go). BENCHMARK.json
// at the repository root lists the workloads and metrics, and LAYERS.md
// maps metrics to layers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// result is the last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: put_sync, hot_pipelined, txn_cross_shard or session_churn")
	seed := flag.Int64("seed", 1, "seed of the generated op streams")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = report the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the span dump of traced runs")
	flag.Parse()
	s, err := findSpec(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), s, *seed, fullSizes, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload and prints a human summary; the caller prints
// the result line.
func run(ctx context.Context, s spec, seed int64, sz sizes, seconds float64, traced bool, outDir string) (*result, error) {
	var (
		m     metricSet
		phase *phaseResult
		err   error
	)
	if traced {
		m, phase, err = tracedRun(ctx, s, seed, sz, seconds, outDir)
	} else {
		phase, err = runPhase(ctx, phaseCfg{
			spec: s, seed: seed, sz: sz,
			budget: time.Duration(seconds * float64(time.Second)),
			open:   func() (deployment, error) { return openPublic(s.opts) },
		})
		if err == nil {
			m = make(metricSet)
			endToEnd(m, phase)
			t := phase.total()
			lat, used := phase.quietSlices()
			lo, hi := phase.sliceRange(func(d deploymentCost) []float64 { return d.speed })
			alo, ahi := phase.sliceRange(func(d deploymentCost) []float64 { return d.avail })
			fmt.Printf("%s seed=%d: %d units in %.1fs (%.1f reference s; slice scale factors p10 %.3f, p90 %.3f; unstolen share p10 %.3f, p90 %.3f) over %d deployments; latency p50 and p99 over the %d of %d slices the host stole least from, %d samples (p99: %d beyond); failed=%d incorrect=%d\n",
				s.name, seed, t.units, t.dur.Seconds(), t.refDurNs/1e9, lo, hi, alo, ahi, len(phase.deployments), used, len(phase.slices),
				len(lat), len(lat)/100, phase.failed, phase.incorrect)
		}
	}
	if err != nil {
		return nil, err
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", k)
		}
	}
	return &result{
		Correct:   phase.failed == 0 && phase.incorrect == 0,
		Attempted: phase.attempted,
		Failed:    phase.failed + phase.incorrect,
		Metrics:   m,
	}, nil
}
