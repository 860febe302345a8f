package cluster

import (
	"context"
	"fmt"
	"testing"

	"curp/internal/kv"
)

// TestHotKeyIncrementWorkloadSkipsPreemptiveSync is the regression test
// for the §4.4 heuristic firing on COMMUTING traffic: before the
// commutativity gate, a counter hammered by increments tripped the
// hot-key detector on every repeat (same key hash, within the window)
// and each spawned sync dragged the exact workload CURP is built for off
// the 1-RTT path. Pure increments must never preempt a sync; the same
// hammering with blind writes still must.
func TestHotKeyIncrementWorkloadSkipsPreemptiveSync(t *testing.T) {
	opts := testOptions()
	opts.Master.Core.HotKeyWindow = 8
	c, _ := startTestCluster(t, opts)
	cl := testClient(t, c, "hammer")
	ctx := context.Background()

	for i := 0; i < 100; i++ {
		if _, err := cl.Submit(ctx, &kv.Command{Op: kv.OpIncrement, Key: []byte("hot-counter"), Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Master.State().Stats()
	if st.HotKeySyncs != 0 {
		t.Fatalf("HotKeySyncs = %d after pure-increment hot key, want 0", st.HotKeySyncs)
	}
	if st.SpeculativeOps == 0 {
		t.Fatal("increments did not ride the speculative path at all")
	}

	// Control: the same hammering with non-commuting writes still trips
	// the detector — the gate narrows the heuristic, it doesn't kill it.
	for i := 0; i < 20; i++ {
		if _, err := cl.Put(ctx, []byte("hot-blob"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Master.State().Stats().HotKeySyncs; got == 0 {
		t.Fatal("repeated blind writes on one key never triggered a preemptive sync")
	}
}
