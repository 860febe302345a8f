package main

import (
	"context"
	"io"

	"curp"
	"curp/internal/cluster"
	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/shard"
	"curp/internal/transport"
	"curp/internal/txn"
)

// deployment is a running cluster a workload drives. The measured run
// boots it through the public curp API; the traced run boots the same
// topology through the internal constructors, on a tapped network.
type deployment interface {
	newClient(name string) (client, error)
	shardFor(key []byte) int
	writeMetrics(w io.Writer) error
	Close()
}

// client is one session on a deployment.
type client interface {
	Put(ctx context.Context, key, value []byte) (uint64, error)
	Get(ctx context.Context, key []byte) (value []byte, ok bool, err error)
	// flush queues ops on one pipeline, flushes it and returns each op's
	// outcome.
	flush(ctx context.Context, ops []pipeOp) []error
	txn() txnHandle
	stats() protoStats
	Close()
}

// pipeOp is one pipelined update: an Increment when incr is set, else a
// Put.
type pipeOp struct {
	key, value []byte
	incr       bool
	delta      int64
}

// txnHandle is the part of a transaction the transfer workload uses;
// *curp.Txn and *txn.Txn both provide it.
type txnHandle interface {
	Get(ctx context.Context, key []byte) (value []byte, ok bool, err error)
	Put(key, value []byte)
	Commit(ctx context.Context) error
}

// protoStats are a client's protocol outcomes, summed over sessions.
type protoStats struct {
	fast, synced, slow, retries uint64
}

func (s *protoStats) add(o protoStats) {
	s.fast += o.fast
	s.synced += o.synced
	s.slow += o.slow
	s.retries += o.retries
}

func (s protoStats) updates() uint64 { return s.fast + s.synced + s.slow }

// pipeline abstracts the three pipeline types; F is the future type.
type pipeline[F any] interface {
	Put(key, value []byte) F
	Increment(key []byte, delta int64) F
	Flush(ctx context.Context) error
}

func runPipeline[F any](ctx context.Context, p pipeline[F], ops []pipeOp, errOf func(F) error) []error {
	futs := make([]F, len(ops))
	for i, op := range ops {
		if op.incr {
			futs[i] = p.Increment(op.key, op.delta)
		} else {
			futs[i] = p.Put(op.key, op.value)
		}
	}
	_ = p.Flush(ctx) // the join of the per-op errors collected below
	errs := make([]error, len(ops))
	for i, f := range futs {
		errs[i] = errOf(f)
	}
	return errs
}

// openPublic boots opts through curp.Start, or curp.StartSharded when
// opts.Shards > 1.
func openPublic(opts curp.Options) (deployment, error) {
	if opts.Shards > 1 {
		c, err := curp.StartSharded(opts)
		if err != nil {
			return nil, err
		}
		return pubSharded{c}, nil
	}
	c, err := curp.Start(opts)
	if err != nil {
		return nil, err
	}
	return pubCluster{c}, nil
}

// internalOptions derives the partition options curp.Start derives from
// opts, for the options the workloads set (F, MaxPipelineDepth,
// ControlPlaneReplicas, DisableEvents).
func internalOptions(opts curp.Options) cluster.Options {
	copts := cluster.DefaultOptions()
	if opts.F > 0 {
		copts.F = opts.F
	}
	if opts.MaxPipelineDepth > 0 {
		ways := copts.Witness.Ways
		for ways < opts.MaxPipelineDepth && ways < 64 {
			ways *= 2
		}
		copts.Witness.Ways = ways
		copts.Master.Core.WitnessBurstLimit = ways
	}
	copts.Master.DisableEvents = opts.DisableEvents
	copts.ControlPlaneReplicas = opts.ControlPlaneReplicas
	return copts
}

// openInternal boots the topology openPublic would, on nw.
func openInternal(nw transport.Network, opts curp.Options) (deployment, error) {
	copts := internalOptions(opts)
	if opts.Shards > 1 {
		c, err := shard.StartCluster(nw, shard.Options{Shards: opts.Shards, Partition: copts})
		if err != nil {
			return nil, err
		}
		return intSharded{c}, nil
	}
	c, err := cluster.Start(nw, copts)
	if err != nil {
		return nil, err
	}
	return intCluster{c}, nil
}

type pubCluster struct{ c *curp.Cluster }

func (d pubCluster) newClient(name string) (client, error) {
	cl, err := d.c.NewClient(name)
	if err != nil {
		return nil, err
	}
	return pubClient{cl}, nil
}
func (d pubCluster) shardFor([]byte) int            { return 0 }
func (d pubCluster) writeMetrics(w io.Writer) error { return d.c.WriteMetrics(w) }
func (d pubCluster) Close()                         { d.c.Close() }

type pubSharded struct{ c *curp.ShardedCluster }

func (d pubSharded) newClient(name string) (client, error) {
	cl, err := d.c.NewClient(name)
	if err != nil {
		return nil, err
	}
	return pubShardedClient{cl}, nil
}
func (d pubSharded) shardFor(key []byte) int        { return d.c.ShardFor(key) }
func (d pubSharded) writeMetrics(w io.Writer) error { return d.c.WriteMetrics(w) }
func (d pubSharded) Close()                         { d.c.Close() }

func pubErr(f *curp.Future) error { return f.Err() }

func pubStats(s curp.Stats) protoStats {
	return protoStats{fast: s.FastPath, synced: s.SyncedByMaster, slow: s.SlowPath, retries: s.Retries}
}

type pubClient struct{ *curp.Client }

func (c pubClient) flush(ctx context.Context, ops []pipeOp) []error {
	return runPipeline[*curp.Future](ctx, c.NewPipeline(), ops, pubErr)
}
func (c pubClient) txn() txnHandle    { return c.Txn() }
func (c pubClient) stats() protoStats { return pubStats(c.Stats()) }

type pubShardedClient struct{ *curp.ShardedClient }

func (c pubShardedClient) flush(ctx context.Context, ops []pipeOp) []error {
	return runPipeline[*curp.Future](ctx, c.NewPipeline(), ops, pubErr)
}
func (c pubShardedClient) txn() txnHandle    { return c.Txn() }
func (c pubShardedClient) stats() protoStats { return pubStats(c.Stats()) }

type intCluster struct{ c *cluster.Cluster }

func (d intCluster) newClient(name string) (client, error) {
	cl, err := d.c.NewClient(name)
	if err != nil {
		return nil, err
	}
	return intClient{cl}, nil
}
func (d intCluster) shardFor([]byte) int { return 0 }
func (d intCluster) writeMetrics(w io.Writer) error {
	for _, r := range d.c.Registries() {
		if r == nil {
			continue
		}
		if err := r.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}
func (d intCluster) Close() { d.c.Close() }

type intSharded struct{ c *shard.Cluster }

func (d intSharded) newClient(name string) (client, error) {
	cl, err := d.c.NewClient(name)
	if err != nil {
		return nil, err
	}
	return intShardedClient{cl}, nil
}
func (d intSharded) shardFor(key []byte) int { return d.c.CurrentRing().Shard(key) }
func (d intSharded) writeMetrics(w io.Writer) error {
	for _, p := range d.c.Partitions() {
		if err := (intCluster{p}).writeMetrics(w); err != nil {
			return err
		}
	}
	return nil
}
func (d intSharded) Close() { d.c.Close() }

func intErr[F interface {
	Wait(context.Context) (*kv.Result, error)
}](f F) error {
	_, err := f.Wait(context.Background())
	return err
}

func intStats(s core.ClientStats) protoStats {
	return protoStats{fast: s.FastPath, synced: s.SyncedByMaster, slow: s.SlowPath, retries: s.Retries}
}

type intClient struct{ *cluster.Client }

func (c intClient) flush(ctx context.Context, ops []pipeOp) []error {
	return runPipeline[*cluster.Future](ctx, c.NewPipeline(), ops, intErr[*cluster.Future])
}
func (c intClient) txn() txnHandle    { return txn.New(c.TxnBackend()) }
func (c intClient) stats() protoStats { return intStats(c.Stats()) }

type intShardedClient struct{ *shard.Client }

func (c intShardedClient) flush(ctx context.Context, ops []pipeOp) []error {
	return runPipeline[*shard.Future](ctx, c.NewPipeline(), ops, intErr[*shard.Future])
}
func (c intShardedClient) txn() txnHandle    { return txn.New(c.TxnBackend()) }
func (c intShardedClient) stats() protoStats { return intStats(c.Stats()) }
