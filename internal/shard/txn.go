package shard

import (
	"context"
	"fmt"

	"curp/internal/cluster"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/txn"
)

// shardTxnBackend adapts the routing client to the transaction
// coordinator's Backend interface. Shard indices come from the client's
// current ring snapshot; the partition list is append-only, so an index
// stays valid across a Refresh (the coordinator regroups under the new
// ring after a redirect rather than re-routing individual phases).
type shardTxnBackend struct{ c *Client }

// TxnBackend returns the transaction Backend view of the sharded
// deployment. Cross-shard transactions commit with client-coordinated 2PC;
// transactions whose keys all map to one shard keep the 1-RTT fast path.
func (c *Client) TxnBackend() txn.Backend { return shardTxnBackend{c} }

func (b shardTxnBackend) ShardOf(key []byte) int { return b.c.ShardFor(key) }
func (b shardTxnBackend) Refresh() bool          { return b.c.refreshRing() }

func (b shardTxnBackend) GetVersioned(ctx context.Context, key []byte) (*kv.Result, error) {
	return b.c.Read(ctx, &kv.Command{Op: kv.OpGet, Key: key})
}

func (b shardTxnBackend) Apply(ctx context.Context, shard int, t *kv.TxnCommand) (*kv.Result, error) {
	sc, err := b.clientFor(shard)
	if err != nil {
		return nil, err
	}
	// No internal re-route: a core.ErrKeyMoved surfaces so the coordinator
	// regroups the whole transaction under fresh routing.
	return sc.SubmitTxnApply(ctx, t)
}

func (b shardTxnBackend) HomeInfo(ctx context.Context, shard int) (kv.TxnHome, error) {
	sc, err := b.clientFor(shard)
	if err != nil {
		return kv.TxnHome{}, err
	}
	return sc.TxnHomeInfo(ctx)
}

func (b shardTxnBackend) MintTxnID(shard int) rifl.RPCID {
	sc, err := b.clientFor(shard)
	if err != nil {
		return rifl.RPCID{}
	}
	return sc.MintTxnID()
}

func (b shardTxnBackend) FinishTxnID(shard int, id rifl.RPCID) {
	if sc, err := b.clientFor(shard); err == nil {
		sc.FinishTxnID(id)
	}
}

func (b shardTxnBackend) Prepare(ctx context.Context, shard int, cmd *kv.Command) (*kv.Result, error) {
	sc, err := b.clientFor(shard)
	if err != nil {
		return nil, err
	}
	return sc.TxnPrepare(ctx, cmd)
}

func (b shardTxnBackend) Decide(ctx context.Context, shard int, cmd *kv.Command) (*kv.Result, error) {
	sc, err := b.clientFor(shard)
	if err != nil {
		return nil, err
	}
	return sc.TxnDecide(ctx, cmd)
}

func (b shardTxnBackend) DecideHome(ctx context.Context, shard int, id rifl.RPCID, commit bool, homeHash uint64) (bool, error) {
	sc, err := b.clientFor(shard)
	if err != nil {
		return false, err
	}
	return sc.TxnDecideHome(ctx, id, commit, homeHash)
}

func (b shardTxnBackend) ForgetDecision(ctx context.Context, shard int, id rifl.RPCID, homeHash uint64) {
	if sc, err := b.clientFor(shard); err == nil {
		sc.ForgetTxnDecision(ctx, id, homeHash)
	}
}

// TxnCommitted / TxnAborted implement txn.OutcomeRecorder. Outcomes land
// on shard 0's client counters; Stats() sums across shards, so the
// aggregate view is shard-placement independent.
func (b shardTxnBackend) TxnCommitted() {
	if sc, err := b.clientFor(0); err == nil {
		sc.CountTxnCommit()
	}
}

func (b shardTxnBackend) TxnAborted(orphan bool) {
	if sc, err := b.clientFor(0); err == nil {
		sc.CountTxnAbort(orphan)
	}
}

// clientFor returns the per-shard client for index s under the current
// snapshot.
func (b shardTxnBackend) clientFor(s int) (*cluster.Client, error) {
	_, shards := b.c.snapshot()
	if s < 0 || s >= len(shards) {
		return nil, fmt.Errorf("shard: no client for shard %d", s)
	}
	return shards[s], nil
}
