package main

import (
	"fmt"
	"runtime"
	"time"

	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/witness"
)

// replayUnits is how many generated units one replay pass cycles through.
const replayUnits = 2048

// gcEvery is how many records the witness replay collects per GC call: a
// master collects a synced batch at a time, and a GC call also scans the
// whole witness for stale records, so per-record collection would
// overstate its cost. It is the master's sync batch ceiling.
var gcEvery = core.DefaultMasterConfig().SyncBatchSize

// layerCost is one layer's replayed cost per unit.
type layerCost struct {
	nsPerOp, allocsPerOp float64
}

// replayLayers replays the workload's generated commands, unit by unit,
// into a standalone kv.Store (Apply) and a standalone witness (one
// RecordBatch per unit, GC per gcEvery records), each for half of budget.
func replayLayers(s spec, seed int64, sz sizes, wcfg witness.Config, budget time.Duration) (store, wit layerCost, err error) {
	preload, next := s.unitCommands(seed, sz)
	units := make([][]*kv.Command, replayUnits)
	recs := make([][]witness.Record, replayUnits)
	for i := range units {
		units[i] = next()
		for _, c := range units[i] {
			recs[i] = append(recs[i], witness.Record{KeyHashes: c.KeyHashes(), Request: c.Encode(), Class: c.Class()})
		}
	}

	store, err = timePasses(budget/2, func() (func() error, error) {
		st := kv.NewStore()
		for _, c := range preload {
			if _, _, err := st.Apply(c, rifl.RPCID{}); err != nil {
				return nil, fmt.Errorf("replay preload: %w", err)
			}
		}
		var seq rifl.Seq
		return func() error {
			for _, u := range units {
				for _, c := range u {
					seq++
					if _, _, err := st.Apply(c, rifl.RPCID{Client: 1, Seq: seq}); err != nil {
						return fmt.Errorf("replay apply: %w", err)
					}
				}
			}
			return nil
		}, nil
	})
	if err != nil {
		return store, wit, err
	}

	wit, err = timePasses(budget/2, func() (func() error, error) {
		w, err := witness.New(1, wcfg)
		if err != nil {
			return nil, err
		}
		var seq rifl.Seq
		return func() error {
			var gc []witness.GCKey
			pending := 0
			for _, batch := range recs {
				for i := range batch {
					seq++
					batch[i].ID = rifl.RPCID{Client: 1, Seq: seq}
					gc = append(gc, witness.GCKeys(batch[i].KeyHashes, batch[i].ID)...)
				}
				w.RecordBatch(1, batch)
				if pending += len(batch); pending >= gcEvery {
					w.GC(gc)
					gc, pending = gc[:0], 0
				}
			}
			w.GC(gc)
			return nil
		}, nil
	})
	return store, wit, err
}

// timePasses runs passes until budget is spent: prepare (untimed) builds
// fresh state, then the pass it returns runs replayUnits units, timed.
func timePasses(budget time.Duration, prepare func() (func() error, error)) (layerCost, error) {
	var (
		ns, allocs float64
		n          int
		ms         runtime.MemStats
	)
	for deadline := time.Now().Add(budget); n == 0 || time.Now().Before(deadline); {
		pass, err := prepare()
		if err != nil {
			return layerCost{}, err
		}
		runtime.ReadMemStats(&ms)
		m0, t0 := ms.Mallocs, time.Now()
		if err := pass(); err != nil {
			return layerCost{}, err
		}
		ns += float64(time.Since(t0))
		runtime.ReadMemStats(&ms)
		allocs += float64(ms.Mallocs - m0)
		n += replayUnits
	}
	return layerCost{nsPerOp: ns / float64(n), allocsPerOp: allocs / float64(n)}, nil
}
