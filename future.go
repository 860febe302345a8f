package curp

import (
	"context"
	"sync"

	"curp/internal/cluster"
	"curp/internal/kv"
	"curp/internal/shard"
)

// Future is the handle to an asynchronous update. Every update verb has a
// Future-returning async form (PutAsync, IncrementAsync, ...), and
// Pipeline hands one out per queued operation.
//
// A Future resolves exactly once: with a result, or with an error after
// the client's retries are exhausted (ErrUpdateFailed wrapping the last
// cause — the operation may or may not have executed; re-issuing it is
// safe on a Client/ShardedClient because RIFL gives each submission a
// fresh exactly-once identity). The operation is durable — f-fault
// tolerant — exactly when the error is nil.
//
// Wait blocks with a context; the typed accessors (Version, Counter,
// Applied, Values) block until the operation completes and then return
// the decoded result. All methods are safe for concurrent use.
type Future struct {
	wait func(ctx context.Context) (*kv.Result, error)

	mu   sync.Mutex
	done bool
	res  *kv.Result
	err  error
}

func wrapClusterFuture(f *cluster.Future) *Future { return &Future{wait: f.Wait} }
func wrapShardFuture(f *shard.Future) *Future     { return &Future{wait: f.Wait} }

// resolve waits for the underlying operation and caches its final
// outcome. A ctx that ends first does not finalize the future.
func (f *Future) resolve(ctx context.Context) (*kv.Result, error) {
	f.mu.Lock()
	if f.done {
		defer f.mu.Unlock()
		return f.res, f.err
	}
	f.mu.Unlock()
	res, err := f.wait(ctx)
	if err != nil && ctx.Err() != nil {
		return nil, err // interrupted wait, not the operation's outcome
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		f.done, f.res, f.err = true, res, err
	}
	return f.res, f.err
}

// Wait blocks until the operation completes and returns its error (nil =
// durable). If ctx ends first, Wait returns ctx's error; the operation
// keeps running and a later Wait or accessor still observes its outcome.
func (f *Future) Wait(ctx context.Context) error {
	_, err := f.resolve(ctx)
	return err
}

// Err blocks until the operation completes and returns its final error.
func (f *Future) Err() error {
	_, err := f.resolve(context.Background())
	return err
}

// Version returns the object's version after the write (Put, CondPut). It
// blocks until the operation completes.
func (f *Future) Version() (uint64, error) {
	return version(f.resolve(context.Background()))
}

// Applied reports whether a CondPut's condition held and the write took.
// It blocks until the operation completes.
func (f *Future) Applied() (bool, error) {
	return found(f.resolve(context.Background()))
}

// Counter returns the new counter value of an Increment. It blocks until
// the operation completes.
func (f *Future) Counter() (int64, error) {
	return counter(f.resolve(context.Background()))
}

// Values returns the new counter values of a MultiIncrement, aligned with
// the deltas. It blocks until the operation completes.
func (f *Future) Values() ([]int64, error) {
	return counters(f.resolve(context.Background()))
}

// Granted reports whether a BucketTake's tokens were available and taken.
// It blocks until the operation completes.
func (f *Future) Granted() (bool, error) {
	return found(f.resolve(context.Background()))
}

// Length returns the value's new total length after an Append. It blocks
// until the operation completes.
func (f *Future) Length() (int64, error) {
	return counter(f.resolve(context.Background()))
}

// Pipeline queues update operations and flushes them as coalesced RPCs:
// one UpdateBatch RPC per master, one RecordBatch RPC per witness, at
// most one slow-path Sync per flush, and one Drop per witness for
// redirect-abandoned operations — O(servers) RPCs per flush instead of
// O(operations × servers).
//
// Completion semantics are per operation and identical to the blocking
// verbs: each queued operation completes on CURP's 1-RTT rule (master
// executed speculatively AND all f witnesses accepted its record), or on
// the master-synced / slow-path rules otherwise, independently of its
// batch-mates. Queue order is preserved, so two operations on the same
// key apply in the order they were queued; operations on distinct keys
// commute (that is CURP's point) and may interleave freely with other
// clients'.
//
// On a ShardedClient, operations are grouped by owning shard at flush
// time, shard groups fly in parallel, and operations bounced by a live
// migration re-route to the new owner automatically.
//
// A Pipeline is not safe for concurrent use; open one per goroutine.
// Futures may be waited on from any goroutine.
type Pipeline struct {
	cp *cluster.Pipeline
	sp *shard.Pipeline
}

// queue appends one command to whichever pipeline p wraps.
func (p *Pipeline) queue(cmd *kv.Command) *Future {
	if p.cp != nil {
		return wrapClusterFuture(p.cp.Queue(cmd))
	}
	return wrapShardFuture(p.sp.Queue(cmd))
}

// Len reports how many operations are queued and unflushed.
func (p *Pipeline) Len() int {
	if p.cp != nil {
		return p.cp.Len()
	}
	return p.sp.Len()
}

// Put queues a write of value under key; the future's Version holds the
// object's new version.
func (p *Pipeline) Put(key, value []byte) *Future {
	return p.queue(&kv.Command{Op: kv.OpPut, Key: key, Value: value})
}

// Delete queues a removal of key.
func (p *Pipeline) Delete(key []byte) *Future {
	return p.queue(&kv.Command{Op: kv.OpDelete, Key: key})
}

// Increment queues adding delta to the counter at key; the future's
// Counter holds the new value.
func (p *Pipeline) Increment(key []byte, delta int64) *Future {
	return p.queue(&kv.Command{Op: kv.OpIncrement, Key: key, Delta: delta})
}

// CondPut queues a conditional write of value at expectVersion; the
// future's Applied reports whether the write took.
func (p *Pipeline) CondPut(key, value []byte, expectVersion uint64) *Future {
	return p.queue(&kv.Command{Op: kv.OpCondPut, Key: key, Value: value, ExpectVersion: expectVersion})
}

// Append queues appending suffix to the value at key; the future's Length
// holds the value's new total length.
func (p *Pipeline) Append(key, suffix []byte) *Future {
	return p.queue(&kv.Command{Op: kv.OpAppend, Key: key, Value: suffix})
}

// PutTTL queues a write of value under key with an absolute UnixNano
// expiry.
func (p *Pipeline) PutTTL(key, value []byte, expireAt int64) *Future {
	return p.queue(&kv.Command{Op: kv.OpPut, Key: key, Value: value, ExpireAt: expireAt})
}

// SetAdd queues adding member to the set at key.
func (p *Pipeline) SetAdd(key, member []byte) *Future {
	return p.queue(&kv.Command{Op: kv.OpSetAdd, Key: key, Value: member})
}

// SetRemove queues removing member from the set at key.
func (p *Pipeline) SetRemove(key, member []byte) *Future {
	return p.queue(&kv.Command{Op: kv.OpSetRemove, Key: key, Value: member})
}

// BucketTake queues taking n tokens from the bucket at key; the future's
// Granted reports whether they were available.
func (p *Pipeline) BucketTake(key []byte, n int64) *Future {
	return p.queue(&kv.Command{Op: kv.OpBucketTake, Key: key, Delta: n})
}

// MultiPut queues an atomic multi-object write (atomic per shard on a
// ShardedClient).
func (p *Pipeline) MultiPut(pairs []KV) *Future {
	return p.queue(multiPut(pairs))
}

// MultiIncrement queues an atomic multi-counter increment (atomic per
// shard on a ShardedClient); the future's Values holds the new counter
// values.
func (p *Pipeline) MultiIncrement(deltas []IncrPair) *Future {
	return p.queue(multiIncr(deltas))
}

// Flush submits every queued operation as coalesced batches and blocks
// until each has completed or failed. Per-operation outcomes land on the
// futures; Flush returns the join of all failures (nil when every
// operation succeeded). The pipeline is empty afterwards and can be
// reused; operations queued after a Flush are ordered after the flushed
// ones.
func (p *Pipeline) Flush(ctx context.Context) error {
	if p.cp != nil {
		return p.cp.Flush(ctx)
	}
	return p.sp.Flush(ctx)
}
