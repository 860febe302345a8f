package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"curp/internal/cluster"
	"curp/internal/core"
	"curp/internal/kv"
)

// Future is the handle to an asynchronous operation routed across shards.
// It resolves once the operation is durable on its owning shard(s) — even
// if the owner changed mid-flight — or has failed for good.
type Future struct {
	done chan struct{}
	res  *kv.Result
	err  error
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

func (f *Future) complete(res *kv.Result) {
	f.res = res
	close(f.done)
}

func (f *Future) fail(err error) {
	f.err = err
	close(f.done)
}

// Wait blocks until the operation completes and returns its result. If
// ctx ends first Wait returns ctx's error; the operation keeps running and
// a later Wait can still observe its outcome.
func (f *Future) Wait(ctx context.Context) (*kv.Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-f.done:
		return f.res, f.err
	}
}

// SubmitAsync runs Submit without blocking: the future resolves with the
// command's result once it is durable on its owning shard(s), after any
// redirects.
func (c *Client) SubmitAsync(ctx context.Context, cmd *kv.Command) *Future {
	f := newFuture()
	own := *cmd // outlives the caller's frame; cmd itself may stay on its stack
	go func() {
		res, err := c.Submit(ctx, &own)
		if err != nil {
			f.fail(err)
			return
		}
		f.complete(res)
	}()
	return f
}

// multiKey reports whether cmd is split per owning shard: its legs are
// cmd.Pairs, and each shard receives the subset it owns.
func multiKey(cmd *kv.Command) bool {
	return cmd.Op == kv.OpMultiPut || cmd.Op == kv.OpMultiIncr
}

// pipeOp is one queued pipeline operation. A multi-key command's legs are
// regrouped by owning shard at every flush attempt (a rebalance between
// attempts may move legs between shards); a single-key command is its own
// one leg.
type pipeOp struct {
	fut         *Future
	cmd         *kv.Command
	outstanding int // legs not yet applied
	failed      error

	// Multi-key commands only: per-leg completion and OpMultiIncr values.
	legDone []bool
	legVal  [][]byte
}

// Pipeline queues update operations against a sharded deployment and
// flushes them scatter/gather: operations are grouped by owning shard
// under the current ring, every shard's group is submitted as ONE
// coalesced batch (one UpdateBatch RPC to that shard's master, one
// RecordBatch per witness), and the groups fly in parallel. Sub-
// operations bounced by a live migration (core.ErrKeyMoved) are regrouped
// under a refreshed ring and re-issued — with fresh RIFL IDs, which is
// safe because a bounced operation never executed and its witness records
// were retracted — so a pipeline survives a Rebalance; completed
// sub-operations are never re-sent.
//
// Queue order is preserved per shard group, so two operations on the same
// key apply in the order they were queued. Multi-key operations keep the
// routed client's cross-shard contract: atomic and exactly-once per
// shard, independent across shards.
//
// A Pipeline is not safe for concurrent use; open one per goroutine
// (futures may be waited on from anywhere).
type Pipeline struct {
	c   *Client
	ops []*pipeOp
}

// NewPipeline opens an empty pipeline.
func (c *Client) NewPipeline() *Pipeline { return &Pipeline{c: c} }

// Len reports how many operations are queued and unflushed.
func (p *Pipeline) Len() int { return len(p.ops) }

// Queue appends one kv update command to the pipeline. A multi-key
// command is atomic per shard, not across shards.
func (p *Pipeline) Queue(cmd *kv.Command) *Future {
	op := &pipeOp{fut: newFuture(), cmd: cmd, outstanding: 1}
	if multiKey(cmd) {
		if len(cmd.Pairs) == 0 {
			op.fut.complete(&kv.Result{})
			return op.fut
		}
		op.outstanding = len(cmd.Pairs)
		op.legDone = make([]bool, len(cmd.Pairs))
		op.legVal = make([][]byte, len(cmd.Pairs))
	}
	p.ops = append(p.ops, op)
	return op.fut
}

// Put queues a write of value under key.
func (p *Pipeline) Put(key, value []byte) *Future {
	return p.Queue(&kv.Command{Op: kv.OpPut, Key: key, Value: value})
}

// Increment queues adding delta to the counter at key.
func (p *Pipeline) Increment(key []byte, delta int64) *Future {
	return p.Queue(&kv.Command{Op: kv.OpIncrement, Key: key, Delta: delta})
}

// segment is the part of one operation going to one shard in one flush
// attempt: the whole operation for single-key commands, a subset of legs
// for multi-key commands.
type segment struct {
	op      *pipeOp
	legIdxs []int // nil for single-key operations
	cmd     *kv.Command
}

// buildCmd materializes a multi-key segment's shard-atomic sub-command.
func (s *segment) buildCmd() {
	cmd := &kv.Command{Op: s.op.cmd.Op}
	for _, i := range s.legIdxs {
		cmd.Pairs = append(cmd.Pairs, s.op.cmd.Pairs[i])
	}
	s.cmd = cmd
}

// credit applies a successful segment result to its operation and
// completes the future when the operation has no outstanding work left.
func (s *segment) credit(res *kv.Result) {
	op := s.op
	if op.legDone == nil {
		op.outstanding = 0
		op.fut.complete(res)
		return
	}
	for j, i := range s.legIdxs {
		if op.legDone[i] {
			continue
		}
		op.legDone[i] = true
		op.outstanding--
		if op.cmd.Op == kv.OpMultiIncr && j < len(res.Values) {
			op.legVal[i] = res.Values[j]
		}
	}
	if op.outstanding == 0 && op.failed == nil {
		if op.cmd.Op == kv.OpMultiIncr {
			op.fut.complete(&kv.Result{Values: op.legVal})
		} else {
			op.fut.complete(&kv.Result{})
		}
	}
}

// Flush submits every queued operation, scatter/gathered per shard, and
// blocks until each has completed or failed. Per-operation outcomes land
// on the futures; Flush returns the join of all failures. The queue is
// empty afterwards, so the pipeline can be reused; operations queued
// after a Flush are ordered after the flushed ones.
//
// Redirects and retired shards follow Client.do's rules: bounced
// segments regroup under a refreshed ring (waiting out a mid-transfer
// range), and a hard error re-routes only when the ring source has a
// newer ring; otherwise it is the operation's outcome.
func (p *Pipeline) Flush(ctx context.Context) error {
	ops := p.ops
	p.ops = nil
	if len(ops) == 0 {
		return nil
	}
	var deadline time.Time
	for attempt := 0; ; attempt++ {
		ring, shards := p.c.snapshot()

		// Scatter: group outstanding work by owning shard, preserving
		// queue order within each group. A multi-key operation contributes
		// at most one shard-atomic segment per shard.
		shardSegs := make(map[int][]*segment)
		pending := 0
		for _, op := range ops {
			if op.failed != nil || op.outstanding == 0 {
				continue
			}
			if op.legDone == nil {
				s := ring.Shard(op.cmd.Key)
				shardSegs[s] = append(shardSegs[s], &segment{op: op, cmd: op.cmd})
				pending++
				continue
			}
			segByShard := make(map[int]*segment)
			for i, leg := range op.cmd.Pairs {
				if op.legDone[i] {
					continue
				}
				s := ring.Shard(leg.Key)
				seg := segByShard[s]
				if seg == nil {
					seg = &segment{op: op}
					segByShard[s] = seg
					shardSegs[s] = append(shardSegs[s], seg)
					pending++
				}
				seg.legIdxs = append(seg.legIdxs, i)
			}
			for _, seg := range segByShard {
				seg.buildCmd()
			}
		}
		if pending == 0 {
			break
		}

		// Submit every shard's group as one coalesced batch; submissions
		// are asynchronous, so the groups fly in parallel.
		type issued struct {
			seg *segment
			fut *cluster.Future
		}
		var all []issued
		for s, segs := range shardSegs {
			cmds := make([]*kv.Command, len(segs))
			for i, seg := range segs {
				cmds[i] = seg.cmd
			}
			futs := shards[s].SubmitBatch(ctx, cmds)
			for i, seg := range segs {
				all = append(all, issued{seg: seg, fut: futs[i]})
			}
		}

		// Gather.
		movedAny := false
		type hardErr struct {
			op  *pipeOp
			err error
		}
		var hard []hardErr
		for _, iss := range all {
			res, err := iss.fut.Wait(ctx)
			switch {
			case err == nil:
				iss.seg.credit(res)
			case errors.Is(err, core.ErrKeyMoved):
				movedAny = true // segment's legs stay outstanding; regroup
			default:
				hard = append(hard, hardErr{iss.seg.op, err})
			}
		}
		if len(hard) > 0 {
			// As in Client.do: a shard retired by RemoveShard answers with
			// connection errors, not redirects. Under a newer ring the
			// failed segments stay outstanding and regroup — the retired
			// master bounced (never executed) its moved ranges from the
			// freeze onward. Without one the failures are real.
			if p.c.refreshRing() {
				continue
			}
			for _, h := range hard {
				if h.op.failed == nil {
					h.op.failed = h.err
				}
			}
		}
		if !movedAny {
			break
		}
		if ctx.Err() != nil {
			break
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(maxRedirectWait)
		} else if time.Now().After(deadline) {
			for _, op := range ops {
				if op.failed == nil && op.outstanding > 0 {
					op.failed = fmt.Errorf("shard: pipeline op still moving after %v (%d redirects): %w", maxRedirectWait, attempt, core.ErrKeyMoved)
				}
			}
			break
		}
		if !p.c.refreshRing() {
			// Same ring: the ranges are mid-transfer. Wait for the flip.
			if perr := pauseRedirect(ctx, attempt); perr != nil {
				for _, op := range ops {
					if op.failed == nil && op.outstanding > 0 {
						op.failed = perr
					}
				}
				break
			}
		}
	}

	// Resolve failures (successes completed eagerly in credit).
	var errs []error
	for i, op := range ops {
		if op.failed == nil && op.outstanding > 0 {
			op.failed = ctx.Err()
			if op.failed == nil {
				op.failed = fmt.Errorf("shard: pipeline op %d incomplete", i)
			}
		}
		if op.failed != nil {
			op.fut.fail(op.failed)
			errs = append(errs, fmt.Errorf("op %d (%v): %w", i, op.cmd.Op, op.failed))
		}
	}
	return errors.Join(errs...)
}
