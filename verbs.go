package curp

import (
	"context"
	"strconv"

	"curp/internal/cluster"
	"curp/internal/kv"
	"curp/internal/shard"
)

// verbs is the key-value command set Client and ShardedClient share.
// Each verb builds one kv.Command, hands it to the backend, and decodes
// the result with the same helpers as Future's accessors; embedding
// promotes the verbs onto both client types.
type verbs struct{ b backend }

// backend is the client a verb set drives: one partition (part) or the
// sharded router, whichever is set. It is a struct rather than an
// interface so that a blocking verb's command stays on the stack.
type backend struct {
	part   *cluster.Client
	router *shard.Client
}

func (b backend) submit(ctx context.Context, cmd *kv.Command) (*kv.Result, error) {
	if b.part != nil {
		return b.part.Submit(ctx, cmd)
	}
	return b.router.Submit(ctx, cmd)
}

func (b backend) submitAsync(ctx context.Context, cmd *kv.Command) *Future {
	if b.part != nil {
		return wrapClusterFuture(b.part.SubmitAsync(ctx, cmd))
	}
	return wrapShardFuture(b.router.SubmitAsync(ctx, cmd))
}

func (b backend) read(ctx context.Context, cmd *kv.Command) (*kv.Result, error) {
	if b.part != nil {
		return b.part.Read(ctx, cmd)
	}
	return b.router.Read(ctx, cmd)
}

func (b backend) readNearby(ctx context.Context, cmd *kv.Command) (*kv.Result, error) {
	if b.part != nil {
		return b.part.ReadNearby(ctx, cmd)
	}
	return b.router.ReadNearby(ctx, cmd)
}

func (b backend) readStale(ctx context.Context, cmd *kv.Command) (*kv.Result, error) {
	if b.part != nil {
		return b.part.ReadStale(ctx, cmd)
	}
	return b.router.ReadStale(ctx, cmd)
}

// Put writes value under key; it returns the object's new version.
func (c *verbs) Put(ctx context.Context, key, value []byte) (uint64, error) {
	return version(c.b.submit(ctx, &kv.Command{Op: kv.OpPut, Key: key, Value: value}))
}

// Get reads key at its master (linearizable).
func (c *verbs) Get(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	return lookup(c.b.read(ctx, &kv.Command{Op: kv.OpGet, Key: key}))
}

// GetNearby reads key from a backup when a witness confirms the read
// commutes with all outstanding speculative updates; otherwise it falls
// back to the master. Still linearizable (paper §A.1).
func (c *verbs) GetNearby(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	return lookup(c.b.readNearby(ctx, &kv.Command{Op: kv.OpGet, Key: key}))
}

// GetStale reads the latest durable value of key without ever waiting for
// a backup sync (paper §A.3): the result may trail the linearizable value
// by the unsynced window. For read-mostly paths that tolerate slight
// staleness and must not block behind hot writers.
func (c *verbs) GetStale(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	return lookup(c.b.readStale(ctx, &kv.Command{Op: kv.OpGet, Key: key}))
}

// Delete removes key.
func (c *verbs) Delete(ctx context.Context, key []byte) error {
	return status(c.b.submit(ctx, &kv.Command{Op: kv.OpDelete, Key: key}))
}

// Increment atomically adds delta to the integer at key and returns the
// new value. After a master crash, a retried Increment may return
// ErrCounterUnavailable: the add is durably applied, only its return value
// is lost.
func (c *verbs) Increment(ctx context.Context, key []byte, delta int64) (int64, error) {
	return counter(c.b.submit(ctx, &kv.Command{Op: kv.OpIncrement, Key: key, Delta: delta}))
}

// CondPut writes value only if key is currently at expectVersion
// (version 0 = must not exist). applied reports whether the write took;
// version is the object's new or current version.
func (c *verbs) CondPut(ctx context.Context, key, value []byte, expectVersion uint64) (applied bool, version uint64, err error) {
	return conditional(c.b.submit(ctx, &kv.Command{Op: kv.OpCondPut, Key: key, Value: value, ExpectVersion: expectVersion}))
}

// MultiPut writes several objects as one atomic operation; it commutes
// only with operations touching none of its keys. On a ShardedClient it
// is atomic within each shard only (see ShardedClient).
func (c *verbs) MultiPut(ctx context.Context, pairs []KV) error {
	return status(c.b.submit(ctx, multiPut(pairs)))
}

// MultiIncrement atomically adds each delta to its (distinct) key in one
// exactly-once operation — e.g. a balance transfer — and returns the new
// counter values, aligned with deltas. On a ShardedClient it is atomic
// and exactly-once within each shard, independent across shards.
func (c *verbs) MultiIncrement(ctx context.Context, deltas []IncrPair) ([]int64, error) {
	return counters(c.b.submit(ctx, multiIncr(deltas)))
}

// Append atomically appends suffix to the value at key (creating it when
// absent) and returns the value's new total length. Append is
// order-dependent, so concurrent Appends on one key conflict and take the
// 2-RTT path; use a Pipeline to order appends from one client cheaply.
func (c *verbs) Append(ctx context.Context, key, suffix []byte) (int64, error) {
	return counter(c.b.submit(ctx, &kv.Command{Op: kv.OpAppend, Key: key, Value: suffix}))
}

// PutTTL writes value under key with an absolute expiry time (UnixNano);
// after that instant the key reads as absent and is purged from the store
// on the next background sync.
func (c *verbs) PutTTL(ctx context.Context, key, value []byte, expireAt int64) (uint64, error) {
	return version(c.b.submit(ctx, &kv.Command{Op: kv.OpPut, Key: key, Value: value, ExpireAt: expireAt}))
}

// SetAdd adds member to the set at key (creating the set when absent).
// Concurrent SetAdds on one key commute — they keep the 1-RTT fast path
// even under contention.
func (c *verbs) SetAdd(ctx context.Context, key, member []byte) error {
	return status(c.b.submit(ctx, &kv.Command{Op: kv.OpSetAdd, Key: key, Value: member}))
}

// SetRemove removes member from the set at key. Concurrent SetRemoves
// commute with each other but not with SetAdds (observed-remove
// semantics: an add/remove pair on one member is order-dependent).
func (c *verbs) SetRemove(ctx context.Context, key, member []byte) error {
	return status(c.b.submit(ctx, &kv.Command{Op: kv.OpSetRemove, Key: key, Value: member}))
}

// SetMembers reads the members of the set at key, sorted bytewise. A
// missing key reads as an empty set.
func (c *verbs) SetMembers(ctx context.Context, key []byte) ([][]byte, error) {
	return members(c.b.read(ctx, &kv.Command{Op: kv.OpSetMembers, Key: key}))
}

// BucketTake takes n tokens from the rate-limiter bucket at key; granted
// reports whether they were available, remaining is the balance after the
// take. Grants commute with each other, so admitting traffic under the
// limit stays 1 RTT; a denial (or draining the bucket) syncs first, so a
// granted=false answer is never speculative.
func (c *verbs) BucketTake(ctx context.Context, key []byte, n int64) (granted bool, remaining int64, err error) {
	return bucket(c.b.submit(ctx, &kv.Command{Op: kv.OpBucketTake, Key: key, Delta: n}))
}

// PutAsync writes value under key without blocking; Future.Version holds
// the object's new version.
func (c *verbs) PutAsync(ctx context.Context, key, value []byte) *Future {
	return c.b.submitAsync(ctx, &kv.Command{Op: kv.OpPut, Key: key, Value: value})
}

// DeleteAsync removes key without blocking.
func (c *verbs) DeleteAsync(ctx context.Context, key []byte) *Future {
	return c.b.submitAsync(ctx, &kv.Command{Op: kv.OpDelete, Key: key})
}

// IncrementAsync adds delta to the counter at key without blocking;
// Future.Counter holds the new value.
func (c *verbs) IncrementAsync(ctx context.Context, key []byte, delta int64) *Future {
	return c.b.submitAsync(ctx, &kv.Command{Op: kv.OpIncrement, Key: key, Delta: delta})
}

// CondPutAsync writes value only if key is at expectVersion, without
// blocking; Future.Applied reports whether the write took.
func (c *verbs) CondPutAsync(ctx context.Context, key, value []byte, expectVersion uint64) *Future {
	return c.b.submitAsync(ctx, &kv.Command{Op: kv.OpCondPut, Key: key, Value: value, ExpectVersion: expectVersion})
}

// MultiPutAsync writes several objects as one atomic operation (atomic per
// shard on a ShardedClient), without blocking.
func (c *verbs) MultiPutAsync(ctx context.Context, pairs []KV) *Future {
	return c.b.submitAsync(ctx, multiPut(pairs))
}

// MultiIncrementAsync atomically applies every delta (atomic per shard on
// a ShardedClient), without blocking; Future.Values holds the new counter
// values.
func (c *verbs) MultiIncrementAsync(ctx context.Context, deltas []IncrPair) *Future {
	return c.b.submitAsync(ctx, multiIncr(deltas))
}

// AppendAsync appends suffix to the value at key without blocking;
// Future.Length holds the value's new total length.
func (c *verbs) AppendAsync(ctx context.Context, key, suffix []byte) *Future {
	return c.b.submitAsync(ctx, &kv.Command{Op: kv.OpAppend, Key: key, Value: suffix})
}

// PutTTLAsync writes value under key with an absolute UnixNano expiry,
// without blocking.
func (c *verbs) PutTTLAsync(ctx context.Context, key, value []byte, expireAt int64) *Future {
	return c.b.submitAsync(ctx, &kv.Command{Op: kv.OpPut, Key: key, Value: value, ExpireAt: expireAt})
}

// SetAddAsync adds member to the set at key without blocking. Concurrent
// SetAdds commute, so a hot set keeps the 1-RTT fast path.
func (c *verbs) SetAddAsync(ctx context.Context, key, member []byte) *Future {
	return c.b.submitAsync(ctx, &kv.Command{Op: kv.OpSetAdd, Key: key, Value: member})
}

// SetRemoveAsync removes member from the set at key without blocking.
func (c *verbs) SetRemoveAsync(ctx context.Context, key, member []byte) *Future {
	return c.b.submitAsync(ctx, &kv.Command{Op: kv.OpSetRemove, Key: key, Value: member})
}

// BucketTakeAsync takes n tokens from the bucket at key without blocking;
// Future.Granted reports whether they were available.
func (c *verbs) BucketTakeAsync(ctx context.Context, key []byte, n int64) *Future {
	return c.b.submitAsync(ctx, &kv.Command{Op: kv.OpBucketTake, Key: key, Delta: n})
}

// NewPipeline opens an empty pipeline bound to this client. Queue
// operations with the update verbs, then Flush once to submit them all as
// coalesced RPCs. On a ShardedClient, operations are grouped by owning
// shard at flush time and sub-operations bounced by a live Rebalance
// re-route automatically.
func (c *verbs) NewPipeline() *Pipeline {
	if c.b.part != nil {
		return &Pipeline{cp: c.b.part.NewPipeline()}
	}
	return &Pipeline{sp: c.b.router.NewPipeline()}
}

func multiPut(pairs []KV) *kv.Command {
	cmd := &kv.Command{Op: kv.OpMultiPut, Pairs: make([]kv.KV, len(pairs))}
	for i, p := range pairs {
		cmd.Pairs[i] = kv.KV{Key: p.Key, Value: p.Value}
	}
	return cmd
}

// multiIncr builds an OpMultiIncr command: each pair's Value carries the
// decimal delta.
func multiIncr(deltas []IncrPair) *kv.Command {
	cmd := &kv.Command{Op: kv.OpMultiIncr, Pairs: make([]kv.KV, len(deltas))}
	for i, d := range deltas {
		cmd.Pairs[i] = kv.KV{Key: d.Key, Value: strconv.AppendInt(nil, d.Delta, 10)}
	}
	return cmd
}

// The decoders turn one operation's outcome into a verb's typed result;
// the blocking verbs and Future's accessors share them.

func status(_ *kv.Result, err error) error { return err }

func version(res *kv.Result, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	return res.Version, nil
}

func lookup(res *kv.Result, err error) ([]byte, bool, error) {
	if err != nil {
		return nil, false, err
	}
	return res.Value, res.Found, nil
}

// found decodes a CondPut's applied or a BucketTake's granted flag.
func found(res *kv.Result, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	return res.Found, nil
}

// conditional decodes a CondPut: whether it applied, and the version.
func conditional(res *kv.Result, err error) (bool, uint64, error) {
	if err != nil {
		return false, 0, err
	}
	return res.Found, res.Version, nil
}

func counter(res *kv.Result, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	return cluster.ParseCounter(res)
}

func counters(res *kv.Result, err error) ([]int64, error) {
	if err != nil {
		return nil, err
	}
	return cluster.ParseCounters(res)
}

func members(res *kv.Result, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// bucket decodes a BucketTake: whether the tokens were granted, and the
// balance left (0 when crash recovery scrubbed it).
func bucket(res *kv.Result, err error) (granted bool, remaining int64, _ error) {
	if err != nil {
		return false, 0, err
	}
	if len(res.Value) > 0 {
		if remaining, err = cluster.ParseCounter(res); err != nil {
			return false, 0, err
		}
	}
	return res.Found, remaining, nil
}
