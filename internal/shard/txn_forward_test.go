package shard

import (
	"context"
	"testing"
	"time"

	"curp/internal/cluster"
	"curp/internal/kv"
	"curp/internal/witness"
)

// TestTxnDecisionLookupFollowsMigratedHome is the regression test for the
// orphaned-2PC-meets-rebalance corner case: a coordinator dies after
// phase one, and before any resolver runs, the transaction's HOME range is
// rebalanced onto a brand-new shard. The participant's lock-timeout
// resolver then dials the address baked into the prepare — the OLD home
// master — which no longer owns the decision record. Before the forward
// fix that master answered a bare StatusKeyMoved forever, the lookup
// could never reach the new owner, and the participant's locks were stuck
// until an operator intervened. With the fix the old home returns the
// handoff target's address, lookupDecision hops to it, the new owner
// records abort-by-default, and the locks settle.
func TestTxnDecisionLookupFollowsMigratedHome(t *testing.T) {
	opts := testOptions(3)
	opts.Partition.Master.TxnLockTimeout = 25 * time.Millisecond
	c := startTestCluster(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A home key whose range the grow step hands to the new shard, and a
	// participant key on a different shard that stays put.
	moving, staying := movingKeys(c.CurrentRing(), "fwd", 8)
	var homeKey string
	homeShard := -1
	for s, keys := range moving {
		homeKey, homeShard = keys[0], s
		break
	}
	if homeShard < 0 {
		t.Fatal("no moving key found")
	}
	var balKey string
	for _, k := range staying {
		if c.CurrentRing().ShardString(k) != homeShard {
			balKey = k
			break
		}
	}
	if balKey == "" {
		t.Fatal("no staying participant key found")
	}
	partShard := c.CurrentRing().ShardString(balKey)

	homeCl, err := c.Part(homeShard).NewClient("coord-home")
	if err != nil {
		t.Fatal(err)
	}
	defer homeCl.Close()
	partCl, err := c.Part(partShard).NewClient("coord-part")
	if err != nil {
		t.Fatal(err)
	}
	defer partCl.Close()

	if _, err := partCl.Submit(ctx, &kv.Command{Op: kv.OpIncrement, Key: []byte(balKey), Delta: 100}); err != nil {
		t.Fatal(err)
	}

	// Phase one only: prepare at the participant, homed in the range about
	// to move, then the "coordinator" dies without ever deciding.
	txnID := homeCl.MintTxnID()
	homeInfo, err := homeCl.TxnHomeInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	homeInfo.KeyHash = witness.KeyHash([]byte(homeKey))
	res, err := partCl.TxnPrepare(ctx, &kv.Command{Op: kv.OpTxnPrepare, Txn: &kv.TxnCommand{
		ID:     txnID,
		Home:   homeInfo,
		Writes: []kv.TxnWrite{{Op: kv.OpIncrement, Key: []byte(balKey), Delta: -10}},
	}})
	if err != nil || !res.Found {
		t.Fatalf("prepare: res=%+v err=%v", res, err)
	}
	if c.Part(partShard).Master.Store().LockCount() == 0 {
		t.Fatal("prepare took no locks")
	}

	// The home range moves to the new shard while the prepare sits
	// orphaned. Nothing migrates for this transaction — no decision exists
	// yet and its locks live on a shard the rebalance doesn't touch — so
	// after the flip only the forward ties the old home to the new one.
	newShard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if got := c.CurrentRing().ShardString(homeKey); got != newShard {
		t.Fatalf("home key on shard %d after rebalance, want %d", got, newShard)
	}

	// A bystander's op on the locked key bounces with StatusTxnLocked and
	// kicks the participant's resolver; it must settle via the forwarded
	// lookup. Without the forward this spins until the context deadline.
	bystander, err := c.Part(partShard).NewClient("bystander")
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()
	res, err = bystander.Submit(ctx, &kv.Command{Op: kv.OpIncrement, Key: []byte(balKey), Delta: 5})
	if err != nil {
		t.Fatalf("blocked increment never recovered: %v", err)
	}
	if n, _ := cluster.ParseCounter(res); n != 105 {
		t.Fatalf("bal = %d, want 105 (orphaned -10 must NOT apply)", n)
	}
	if got := c.Part(partShard).Master.Store().LockCount(); got != 0 {
		t.Fatalf("%d keys still locked after resolution", got)
	}

	// The abort-by-default decision was recorded by the NEW home — proof
	// the lookup actually followed the forward rather than resolving at
	// the stale address.
	if commit, known := c.Part(newShard).Master.Store().TxnDecision(txnID); !known || commit {
		t.Fatalf("new home decision known=%v commit=%v, want known abort", known, commit)
	}
	if _, known := c.Part(homeShard).Master.Store().TxnDecision(txnID); known {
		t.Fatal("old home recorded a decision for the moved-away range")
	}
}
