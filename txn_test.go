package curp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"curp/internal/core"
	"curp/internal/shard"
)

// TestTxnSingleShardBasics exercises the single-partition transaction
// surface: read-your-writes, atomic commit, and optimistic-validation
// aborts.
func TestTxnSingleShardBasics(t *testing.T) {
	c, err := Start(Options{F: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("txn-basic")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if _, err := cl.Put(ctx, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	// Read-modify-write across two keys, atomically.
	tx := cl.Txn()
	v, ok, err := tx.Get(ctx, []byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("txn get a = %q %v %v", v, ok, err)
	}
	tx.Increment([]byte("a"), 4)
	tx.Put([]byte("b"), []byte("beta"))
	// Read-your-writes before commit.
	if v, ok, err := tx.Get(ctx, []byte("a")); err != nil || !ok || string(v) != "5" {
		t.Fatalf("read-your-writes a = %q %v %v", v, ok, err)
	}
	if v, ok, err := tx.Get(ctx, []byte("b")); err != nil || !ok || string(v) != "beta" {
		t.Fatalf("read-your-writes b = %q %v %v", v, ok, err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if n, err := cl.Increment(ctx, []byte("a"), 0); err != nil || n != 5 {
		t.Fatalf("a after commit = %d %v", n, err)
	}
	if v, ok, _ := cl.Get(ctx, []byte("b")); !ok || string(v) != "beta" {
		t.Fatalf("b after commit = %q %v", v, ok)
	}

	// A concurrent write between Get and Commit aborts the transaction.
	tx = cl.Txn()
	if _, _, err := tx.Get(ctx, []byte("a")); err != nil {
		t.Fatal(err)
	}
	tx.Put([]byte("b"), []byte("should-not-land"))
	if _, err := cl.Increment(ctx, []byte("a"), 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("commit after conflicting write: %v, want ErrTxnAborted", err)
	}
	if v, _, _ := cl.Get(ctx, []byte("b")); string(v) != "beta" {
		t.Fatalf("aborted txn leaked write: b = %q", v)
	}

	// Use-after-finish.
	if err := tx.Commit(ctx); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second commit: %v, want ErrTxnDone", err)
	}
}

// crossShardTxnKeys returns n keys all owned by DIFFERENT shards of a
// ringShards-shard ring (one key per shard, in shard order 0..n-1).
func crossShardTxnKeys(t *testing.T, prefix string, ringShards, n int) [][]byte {
	t.Helper()
	ring := shard.MustNewRing(ringShards, 0)
	keys := make([][]byte, n)
	for i, filled := 0, 0; filled < n; i++ {
		k := []byte(fmt.Sprintf("%s:%d", prefix, i))
		s := ring.Shard(k)
		if s < n && keys[s] == nil {
			keys[s] = k
			filled++
		}
	}
	return keys
}

// TestTxnCrossShard commits and aborts transactions spanning shards and
// checks atomicity from a second client's perspective.
func TestTxnCrossShard(t *testing.T) {
	c, err := StartSharded(Options{F: 1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("txn-cross")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	keys := crossShardTxnKeys(t, "x", 3, 3)
	if c.ShardFor(keys[0]) == c.ShardFor(keys[1]) {
		t.Fatalf("test keys landed on one shard")
	}

	// Seed two counters on different shards, then transfer between them.
	if _, err := cl.Increment(ctx, keys[0], 100); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Increment(ctx, keys[1], 50); err != nil {
		t.Fatal(err)
	}
	tx := cl.Txn()
	tx.Increment(keys[0], -30)
	tx.Increment(keys[1], 30)
	tx.Put(keys[2], []byte("receipt"))
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("cross-shard commit: %v", err)
	}
	if n, _ := cl.Increment(ctx, keys[0], 0); n != 70 {
		t.Fatalf("keys[0] = %d, want 70", n)
	}
	if n, _ := cl.Increment(ctx, keys[1], 0); n != 80 {
		t.Fatalf("keys[1] = %d, want 80", n)
	}
	if v, ok, _ := cl.Get(ctx, keys[2]); !ok || string(v) != "receipt" {
		t.Fatalf("keys[2] = %q %v", v, ok)
	}

	// A cross-shard transaction whose read set is invalidated aborts with
	// nothing applied on ANY shard.
	tx = cl.Txn()
	if _, _, err := tx.Get(ctx, keys[0]); err != nil {
		t.Fatal(err)
	}
	tx.Put(keys[1], []byte("must-not-land"))
	tx.Put(keys[2], []byte("must-not-land"))
	if _, err := cl.Increment(ctx, keys[0], 1); err != nil { // invalidate the read
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("invalidated cross-shard commit: %v, want ErrTxnAborted", err)
	}
	if n, _ := cl.Increment(ctx, keys[1], 0); n != 80 {
		t.Fatalf("abort leaked to keys[1]: %d", n)
	}
	if v, _, _ := cl.Get(ctx, keys[2]); string(v) != "receipt" {
		t.Fatalf("abort leaked to keys[2]: %q", v)
	}

	// Both outcomes reach the client's counters, summed over its shards.
	if st := cl.Stats(); st.TxnCommits != 1 || st.TxnAborts != 1 {
		t.Fatalf("stats: %d commits, %d aborts; want 1 and 1", st.TxnCommits, st.TxnAborts)
	}
}

// TestTxnSingleShardFastPath asserts the RPC-economy claim: a
// non-conflicting single-shard transaction commits on CURP's 1-RTT fast
// path — no slow-path Sync RPC and no master-forced sync — exactly like a
// plain speculative update.
func TestTxnSingleShardFastPath(t *testing.T) {
	c, err := StartSharded(Options{F: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("txn-fast")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Distinct fresh keys on one shard: nothing to conflict with.
	ring := shard.MustNewRing(2, 0)
	var keys [][]byte
	for i := 0; len(keys) < 6; i++ {
		k := []byte(fmt.Sprintf("fast:%d", i))
		if ring.Shard(k) == 0 {
			keys = append(keys, k)
		}
	}

	before := cl.Stats()
	for i := 0; i+1 < len(keys); i += 2 {
		tx := cl.Txn()
		tx.Put(keys[i], []byte("v"))
		tx.Increment(keys[i+1], 7)
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("fast-path commit %d: %v", i, err)
		}
	}
	after := cl.Stats()

	txns := uint64(len(keys) / 2)
	if got := after.FastPath - before.FastPath; got != txns {
		t.Fatalf("fast-path completions = %d, want %d (single-shard txns must ride the 1-RTT path)", got, txns)
	}
	if after.SlowPath != before.SlowPath {
		t.Fatalf("slow-path syncs grew %d -> %d; non-conflicting txns must not sync", before.SlowPath, after.SlowPath)
	}
	if after.SyncedByMaster != before.SyncedByMaster {
		t.Fatalf("master-synced grew %d -> %d; non-conflicting txns must not force a sync", before.SyncedByMaster, after.SyncedByMaster)
	}
}

// TestTxnLinearizable is the subsystem's acceptance test: concurrent
// cross-shard transactions (counter transfers and register writes) mixed
// with plain Put/Increment traffic, while the harness BOTH crashes and
// recovers a participant master AND grows the ring with AddShard+Rebalance.
// Afterwards: transfer sums are conserved exactly (atomicity + exactly-
// once), every register history admits a linearization (Wing & Gong), and
// plain counters saw each increment exactly once.
func TestTxnLinearizable(t *testing.T) {
	c, err := StartSharded(Options{F: 1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("txn-lin")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Accounts for transactional transfers: one per shard of the grown
	// ring's predecessor, so transfers cross shards before AND after the
	// rebalance. Registers get transactional writers + plain readers;
	// plain counters check exactly-once for non-transactional traffic.
	accounts := crossShardTxnKeys(t, "acct", 3, 3)
	regKeys := pickMigrationKeys("treg", 4, 4)
	ctrKeys := pickMigrationKeys("tctr", 2, 2)
	const (
		initialBalance = 1000
		transferors    = 4
		transfersEach  = 12
		regWriters     = 2
		regWritesEach  = 8
		regReaders     = 2
		regReadsEach   = 8
		incrPerKey     = 2
		incrEach       = 12
	)

	for _, a := range accounts {
		if _, err := cl.Increment(ctx, a, initialBalance); err != nil {
			t.Fatal(err)
		}
	}

	var clock atomic.Int64
	type hist struct {
		mu  sync.Mutex
		ops []core.HistOp
	}
	histories := make(map[string]*hist, len(regKeys))
	for _, k := range regKeys {
		histories[k] = &hist{}
	}
	record := func(key string, start, end int64, isWrite bool, value string) {
		h := histories[key]
		h.mu.Lock()
		h.ops = append(h.ops, core.HistOp{Start: start, End: end, IsWrite: isWrite, Value: value})
		h.mu.Unlock()
	}

	var wg sync.WaitGroup
	var opErrs atomic.Int64
	var commits, aborts atomic.Int64
	var deltaMu sync.Mutex
	expected := make(map[string]int64)
	for _, a := range accounts {
		expected[string(a)] = initialBalance
	}
	noteTransfer := func(from, to []byte) {
		deltaMu.Lock()
		expected[string(from)]--
		expected[string(to)]++
		deltaMu.Unlock()
	}
	fail := func(format string, args ...any) {
		opErrs.Add(1)
		t.Errorf(format, args...)
	}
	pace := func() { time.Sleep(time.Duration(500+clock.Load()%700) * time.Microsecond) }

	// Transactional transfers between random account pairs: each moves 1
	// unit from one account to the next, retrying on optimistic aborts.
	// The sum across accounts is invariant iff every commit is atomic and
	// exactly-once.
	for w := 0; w < transferors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < transfersEach; i++ {
				from := accounts[(w+i)%len(accounts)]
				to := accounts[(w+i+1)%len(accounts)]
				for {
					tx := cl.Txn()
					tx.Increment(from, -1)
					tx.Increment(to, 1)
					err := tx.Commit(ctx)
					if err == nil {
						commits.Add(1)
						noteTransfer(from, to)
						break
					}
					if errors.Is(err, ErrTxnAborted) {
						aborts.Add(1)
						continue
					}
					fail("transfer %d/%d: %v", w, i, err)
					return
				}
				pace()
			}
		}(w)
	}

	// Transactional register writers (single-key txns — fast-path capable)
	// mixed with plain linearizable readers.
	for _, key := range regKeys {
		for w := 0; w < regWriters; w++ {
			wg.Add(1)
			go func(key string, w int) {
				defer wg.Done()
				for i := 0; i < regWritesEach; i++ {
					val := fmt.Sprintf("t%d/%s/%d", w, key, i)
					start := clock.Add(1)
					tx := cl.Txn()
					tx.Put([]byte(key), []byte(val))
					err := tx.Commit(ctx)
					end := clock.Add(1)
					if err != nil {
						fail("txn put %q: %v", key, err)
						return
					}
					record(key, start, end, true, val)
					pace()
				}
			}(key, w)
		}
		for r := 0; r < regReaders; r++ {
			wg.Add(1)
			go func(key string) {
				defer wg.Done()
				for i := 0; i < regReadsEach; i++ {
					start := clock.Add(1)
					v, ok, err := cl.Get(ctx, []byte(key))
					end := clock.Add(1)
					if err != nil {
						fail("get %q: %v", key, err)
						return
					}
					val := ""
					if ok {
						val = string(v)
					}
					record(key, start, end, false, val)
					pace()
				}
			}(key)
		}
	}

	// Plain (non-transactional) increment traffic for exactly-once totals.
	for _, key := range ctrKeys {
		for w := 0; w < incrPerKey; w++ {
			wg.Add(1)
			go func(key string) {
				defer wg.Done()
				for i := 0; i < incrEach; i++ {
					// ErrCounterUnavailable = the add applied exactly
					// once but the returned total was scrubbed by crash
					// recovery; the final-total check below still holds.
					if _, err := cl.Increment(ctx, []byte(key), 1); err != nil && !errors.Is(err, ErrCounterUnavailable) {
						fail("increment %q: %v", key, err)
						return
					}
					pace()
				}
			}(key)
		}
	}

	// Fault schedule, concurrent with all of the above: crash and recover
	// a participant master, then grow the ring under load.
	time.Sleep(5 * time.Millisecond)
	c.CrashMaster(1)
	time.Sleep(2 * time.Millisecond)
	if err := c.Recover(1, "master-reborn"); err != nil {
		t.Fatalf("recover shard 1: %v", err)
	}
	if _, err := c.AddShard(); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatalf("rebalance under txn load: %v", err)
	}

	wg.Wait()
	if opErrs.Load() > 0 {
		t.Fatalf("%d operations failed", opErrs.Load())
	}
	if c.RingShards() != 4 {
		t.Fatalf("ring covers %d shards, want 4", c.RingShards())
	}
	t.Logf("txn commits=%d aborts=%d", commits.Load(), aborts.Load())

	// Conservation: transfers moved units between accounts but every
	// commit was all-or-nothing and exactly-once, so the total is intact.
	total := int64(0)
	for _, a := range accounts {
		n, err := cl.Increment(ctx, a, 0)
		if err != nil {
			t.Fatalf("final read of %q: %v", a, err)
		}
		if n != expected[string(a)] {
			t.Errorf("account %q = %d, want %d (shard %d)", a, n, expected[string(a)], c.ShardFor(a))
			for si, part := range c.inner.Partitions() {
				v, ver, ok := part.Master.Store().Get(a)
				t.Logf("  shard %d (store %p): %q ver=%d ok=%v locks=%d", si, part.Master.Store(), v, ver, ok, part.Master.Store().LockCount())
			}
		}
		total += n
	}
	if want := int64(initialBalance * len(accounts)); total != want {
		t.Fatalf("account total = %d, want %d (atomicity or exactly-once violated)", total, want)
	}

	// Exactly-once for the plain counters.
	for _, key := range ctrKeys {
		n, err := cl.Increment(ctx, []byte(key), 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(incrPerKey * incrEach); n != want {
			t.Fatalf("counter %q = %d, want %d", key, n, want)
		}
	}

	// Linearizability of the register histories.
	for _, key := range regKeys {
		h := histories[key]
		if !core.CheckLinearizable("", h.ops) {
			t.Fatalf("history for %q is NOT linearizable:\n%v", key, h.ops)
		}
	}
}

// TestTxnDecisionRecordGC: the home shard's decision table must not grow
// with settled transactions — once every participant acknowledged the
// decide, the coordinator prunes the record (OpTxnForget), for commits
// and for resolver-recorded aborts alike.
func TestTxnDecisionRecordGC(t *testing.T) {
	c, err := StartSharded(Options{F: 1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("txn-gc")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	keys := crossShardTxnKeys(t, "gc", 3, 3)
	const txns = 25
	for i := 0; i < txns; i++ {
		tx := cl.Txn()
		tx.Increment(keys[0], 1)
		tx.Increment(keys[1], 1)
		tx.Put(keys[2], []byte(fmt.Sprintf("v%d", i)))
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}

	// The forget rides the async engine; drain it with a bounded poll.
	decisions := func() int {
		total := 0
		for _, part := range c.inner.Partitions() {
			total += part.CurrentMaster().Store().DecisionCount()
		}
		return total
	}
	deadline := time.Now().Add(30 * time.Second)
	for decisions() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("decision records never pruned: %d left after %d settled txns", decisions(), txns)
		}
		time.Sleep(time.Millisecond)
	}

	// The data itself must be intact after the GC.
	if n, err := cl.Increment(ctx, keys[0], 0); err != nil || n != txns {
		t.Fatalf("keys[0] = %d %v, want %d", n, err, txns)
	}
	if n, err := cl.Increment(ctx, keys[1], 0); err != nil || n != txns {
		t.Fatalf("keys[1] = %d %v, want %d", n, err, txns)
	}
}
