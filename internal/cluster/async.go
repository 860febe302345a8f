package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"curp/internal/core"
	"curp/internal/kv"
)

// Future is the handle to an asynchronous kv operation on one partition.
// It resolves to the operation's kv.Result once the operation is durable
// (or has exhausted its retries).
type Future struct {
	ready chan struct{} // closed once src is set
	src   *core.Future  // the in-flight operation

	mu     sync.Mutex
	cached *kv.Result
	cerr   error
	done   bool
}

// futureOf wraps an already-submitted core future.
func futureOf(src *core.Future) *Future {
	f := &Future{ready: make(chan struct{}), src: src}
	close(f.ready)
	return f
}

// newPendingFuture returns a future whose operation has not been
// submitted yet (a queued pipeline slot).
func newPendingFuture() *Future { return &Future{ready: make(chan struct{})} }

// bind attaches the submitted operation to a pending future.
func (f *Future) bind(src *core.Future) {
	f.src = src
	close(f.ready)
}

// Wait blocks until the operation completes and returns its result. The
// operation is durable (f-fault tolerant) exactly when the returned error
// is nil. If ctx ends first Wait returns ctx's error, but the operation
// keeps running; a later Wait can still observe its outcome.
func (f *Future) Wait(ctx context.Context) (*kv.Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-f.ready:
	}
	out, err := f.src.Wait(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err // not final: the operation is still in flight
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if !f.done {
			f.done, f.cerr = true, err
		}
		return nil, f.cerr
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		f.cached, f.cerr = kv.DecodeResult(out)
		f.done = true
	}
	return f.cached, f.cerr
}

// SubmitAsync issues one kv update command without blocking; the future
// resolves once the command is durable.
func (c *Client) SubmitAsync(ctx context.Context, cmd *kv.Command) *Future {
	return futureOf(c.curp.UpdateAsync(ctx, cmd.KeyHashes(), cmd.Encode(), cmd.Class()))
}

// SubmitBatch issues a batch of kv commands as coalesced RPCs: one
// UpdateBatch to the master and one RecordBatch per witness, with per-
// command completion (see core.Client.UpdateBatchAsync). Futures are
// aligned with cmds.
func (c *Client) SubmitBatch(ctx context.Context, cmds []*kv.Command) []*Future {
	ops := make([]core.BatchOp, len(cmds))
	for i, cmd := range cmds {
		ops[i] = core.BatchOp{KeyHashes: cmd.KeyHashes(), Payload: cmd.Encode(), Class: cmd.Class()}
	}
	inner := c.curp.UpdateBatchAsync(ctx, ops)
	futs := make([]*Future, len(inner))
	for i, src := range inner {
		futs[i] = futureOf(src)
	}
	return futs
}

// ErrCounterUnavailable marks a commutative command's numeric result that
// was scrubbed during crash recovery: witness replay re-executes such
// commands in arbitrary order, so the replayed total would be from a
// history that never happened. The operation itself applied exactly once;
// only its return value is gone. Re-read the key for the current total.
var ErrCounterUnavailable = errors.New("cluster: counter result unavailable after crash recovery")

// ParseCounter extracts the counter value of an Increment result.
func ParseCounter(res *kv.Result) (int64, error) {
	if len(res.Value) == 0 {
		return 0, ErrCounterUnavailable
	}
	// strconv.ParseInt, not Sscanf: Sscanf accepts trailing garbage.
	return strconv.ParseInt(string(res.Value), 10, 64)
}

// ParseCounters extracts the counter values of a MultiIncrement result.
func ParseCounters(res *kv.Result) ([]int64, error) {
	out := make([]int64, len(res.Values))
	for i, v := range res.Values {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// Pipeline queues update operations against one partition and flushes
// them as coalesced RPCs: one UpdateBatch to the master, one RecordBatch
// per witness, at most one slow-path Sync, and one Drop per witness for
// redirect-abandoned operations. Operations complete independently (each
// future resolves on its own 1-RTT rule); queue order is preserved, so
// two operations on the same key apply in the order they were queued.
//
// A Pipeline is not safe for concurrent use; open one per goroutine
// (futures may be waited on from anywhere).
type Pipeline struct {
	c    *Client
	cmds []*kv.Command
	futs []*Future
}

// NewPipeline opens an empty pipeline.
func (c *Client) NewPipeline() *Pipeline { return &Pipeline{c: c} }

// Len reports how many operations are queued and unflushed.
func (p *Pipeline) Len() int { return len(p.cmds) }

// Queue appends one kv update command to the pipeline.
func (p *Pipeline) Queue(cmd *kv.Command) *Future {
	f := newPendingFuture()
	p.cmds = append(p.cmds, cmd)
	p.futs = append(p.futs, f)
	return f
}

// Put queues a write of value under key.
func (p *Pipeline) Put(key, value []byte) *Future {
	return p.Queue(&kv.Command{Op: kv.OpPut, Key: key, Value: value})
}

// Increment queues adding delta to the counter at key.
func (p *Pipeline) Increment(key []byte, delta int64) *Future {
	return p.Queue(&kv.Command{Op: kv.OpIncrement, Key: key, Delta: delta})
}

// Flush submits every queued operation as one coalesced batch and blocks
// until each has completed or failed. Per-operation outcomes land on the
// futures; Flush returns the join of all failures (nil when every
// operation succeeded). The queue is empty afterwards, so the pipeline
// can be reused; operations queued after a Flush are ordered after the
// flushed ones.
func (p *Pipeline) Flush(ctx context.Context) error {
	if len(p.cmds) == 0 {
		return nil
	}
	cmds, futs := p.cmds, p.futs
	p.cmds, p.futs = nil, nil
	inner := p.c.SubmitBatch(ctx, cmds)
	var errs []error
	for i, f := range futs {
		f.bind(inner[i].src)
		if _, err := f.Wait(ctx); err != nil {
			errs = append(errs, fmt.Errorf("op %d (%v): %w", i, cmds[i].Op, err))
		}
	}
	return errors.Join(errs...)
}
