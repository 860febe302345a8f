package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"curp"
	"curp/internal/kv"
	"curp/internal/workload"
)

const (
	keySize   = 30
	valueSize = 100
	workers   = 2 // closed-loop client goroutines
)

// spec describes one named workload.
type spec struct {
	name string
	opts curp.Options
	// units is each worker's unit count per deployment, sized so that a
	// run spans several deployments on a 2-vCPU host (0.5 to 2.5 s each):
	// setup_s and the per-op costs are medians over them. session_churn's
	// is the smallest because its per-session cost grows with the control
	// log; at 1000 sessions per client the run-to-run spread of its
	// latencies was two to three times wider.
	units int
	// newRun returns the workload state for one deployment.
	newRun func(seed int64, sz sizes) workloadRun
	// unitCommands returns a generator of the kv commands each unit
	// applies, for the standalone store and witness replay, and the
	// commands that preload a fresh store.
	unitCommands func(seed int64, sz sizes) (preload []*kv.Command, next func() []*kv.Command)
}

// sizes are the workload dimensions; the self-tests shrink them.
type sizes struct {
	putKeys  int     // put_sync keys per worker
	accounts int     // txn_cross_shard accounts per shard
	unitFrac float64 // scales spec.units
}

var fullSizes = sizes{putKeys: 16384, accounts: 512, unitFrac: 1}

func (sz sizes) unitsPerWorker(s spec) int {
	return max(1, int(float64(s.units)*sz.unitFrac))
}

// workloadRun runs a workload on one deployment: setup opens the clients
// and preloads, unit runs worker w's next unit, check verifies the final
// state and returns the number of incorrect units found.
type workloadRun interface {
	setup(ctx context.Context, d deployment, host func(w int) string) error
	unit(ctx context.Context, w int) error
	check(ctx context.Context) (bad int64, err error)
	stats() protoStats
	sessions() int // client sessions opened
	close()
}

func specs() []spec {
	return []spec{
		{
			name:         "put_sync",
			opts:         curp.Options{F: 3},
			units:        20000,
			newRun:       func(seed int64, sz sizes) workloadRun { return newPutSync(seed, sz) },
			unitCommands: putSyncCommands,
		},
		{
			name:         "hot_pipelined",
			opts:         curp.Options{F: 3, MaxPipelineDepth: hotDepth},
			units:        1200,
			newRun:       func(seed int64, _ sizes) workloadRun { return newHot(seed) },
			unitCommands: hotCommands,
		},
		{
			name:         "txn_cross_shard",
			opts:         curp.Options{F: 3, Shards: 2},
			units:        700,
			newRun:       func(seed int64, sz sizes) workloadRun { return newTransfers(seed, sz) },
			unitCommands: transferCommands,
		},
		{
			name:         "session_churn",
			opts:         curp.Options{F: 3, ControlPlaneReplicas: 3},
			units:        250,
			newRun:       func(seed int64, _ sizes) workloadRun { return newChurn(seed) },
			unitCommands: churnCommands,
		},
	}
}

func findSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// stamp returns a valueSize payload: tag in decimal, then a filler that
// depends on the seed.
func stamp(seed int64, tag uint64) []byte {
	v := workload.Value(uint64(seed)+tag, valueSize)
	copy(v, strconv.FormatUint(tag, 10)+":")
	return v
}

// preloadPuts writes every key/value pair in pipelined flushes of
// hotDepth.
func preloadPuts(ctx context.Context, c client, keys, values [][]byte) error {
	for i := 0; i < len(keys); i += hotDepth {
		end := min(i+hotDepth, len(keys))
		ops := make([]pipeOp, 0, end-i)
		for j := i; j < end; j++ {
			ops = append(ops, pipeOp{key: keys[j], value: values[j]})
		}
		if err := errors.Join(c.flush(ctx, ops)...); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func openClients(d deployment, host func(w int) string) ([]client, error) {
	cls := make([]client, workers)
	for w := range cls {
		c, err := d.newClient(host(w))
		if err != nil {
			closeClients(cls)
			return nil, err
		}
		cls[w] = c
	}
	return cls, nil
}

func closeClients(cls []client) {
	for _, c := range cls {
		if c != nil {
			c.Close()
		}
	}
}

func sumStats(cls []client) protoStats {
	var s protoStats
	for _, c := range cls {
		s.add(c.stats())
	}
	return s
}

// ---- put_sync: sync Puts, each worker cycling over its own key range.

// putGen is a worker's put_sync op stream: a seeded permutation of its
// key range, cycled; every write of a key carries a new pass number.
type putGen struct {
	seed  int64
	base  uint64
	order []int
	pos   int
	pass  uint64
}

func newPutGen(seed int64, w, n int) *putGen {
	rng := rand.New(rand.NewSource(seed*workers + int64(w)))
	return &putGen{seed: seed, base: uint64(w * n), order: rng.Perm(n), pass: 1}
}

// next returns the key index within the range and its value.
func (g *putGen) next() (idx int, pass uint64, key, value []byte) {
	idx = g.order[g.pos]
	pass = g.pass
	g.pos++
	if g.pos == len(g.order) {
		g.pos = 0
		g.pass++
	}
	k := g.base + uint64(idx)
	return idx, pass, workload.Key(k, keySize), stamp(g.seed, pass<<32|k)
}

func putSyncCommands(seed int64, sz sizes) ([]*kv.Command, func() []*kv.Command) {
	var preload []*kv.Command
	for k := 0; k < workers*sz.putKeys; k++ {
		preload = append(preload, &kv.Command{Op: kv.OpPut, Key: workload.Key(uint64(k), keySize), Value: stamp(seed, uint64(k))})
	}
	gens := []*putGen{newPutGen(seed, 0, sz.putKeys), newPutGen(seed, 1, sz.putKeys)}
	turn := 0
	return preload, func() []*kv.Command {
		_, _, key, value := gens[turn%workers].next()
		turn++
		return []*kv.Command{{Op: kv.OpPut, Key: key, Value: value}}
	}
}

type putSync struct {
	seed  int64
	n     int
	cls   []client
	gens  []*putGen
	acked [][]uint64 // [worker][idx] last acknowledged pass, 0 = preload
}

func newPutSync(seed int64, sz sizes) *putSync {
	return &putSync{seed: seed, n: sz.putKeys}
}

func (r *putSync) setup(ctx context.Context, d deployment, host func(int) string) error {
	cls, err := openClients(d, host)
	if err != nil {
		return err
	}
	r.cls = cls
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r.gens = append(r.gens, newPutGen(r.seed, w, r.n))
		r.acked = append(r.acked, make([]uint64, r.n))
		keys, values := make([][]byte, r.n), make([][]byte, r.n)
		for i := range keys {
			k := uint64(w*r.n + i)
			keys[i], values[i] = workload.Key(k, keySize), stamp(r.seed, k)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = preloadPuts(ctx, cls[w], keys, values)
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *putSync) unit(ctx context.Context, w int) error {
	idx, pass, key, value := r.gens[w].next()
	if _, err := r.cls[w].Put(ctx, key, value); err != nil {
		return err
	}
	r.acked[w][idx] = pass
	return nil
}

// check reads back every 64th key of each range: each key has a single
// writer, so it must hold the last value its writer had acknowledged.
func (r *putSync) check(ctx context.Context) (int64, error) {
	var bad int64
	for w := 0; w < workers; w++ {
		for idx := 0; idx < r.n; idx += 64 {
			k := uint64(w*r.n + idx)
			want := stamp(r.seed, k)
			if p := r.acked[w][idx]; p > 0 {
				want = stamp(r.seed, p<<32|k)
			}
			got, ok, err := r.cls[w].Get(ctx, workload.Key(k, keySize))
			if err != nil {
				return bad, err
			}
			if !ok || !bytes.Equal(got, want) {
				bad++
			}
		}
	}
	return bad, nil
}

func (r *putSync) stats() protoStats { return sumStats(r.cls) }
func (r *putSync) sessions() int     { return len(r.cls) }
func (r *putSync) close()            { closeClients(r.cls) }

// ---- hot_pipelined: 16-op flushes of Increments on zipfian counters and
// Puts on zipfian registers.

const (
	hotDepth   = 16
	hotKeys    = 64
	hotPutFrac = 0.10
)

func counterKey(i uint64) []byte  { return workload.Key(i, keySize) }
func registerKey(i uint64) []byte { return workload.Key(1<<20+i, keySize) }

// hotGen is a worker's hot_pipelined op stream.
type hotGen struct {
	seed      int64
	w         uint64
	rng       *rand.Rand
	counters  *workload.Zipfian
	registers *workload.Zipfian
	seq       uint64
}

func newHotGen(seed int64, w int) *hotGen {
	s := seed*16 + int64(w)*4
	return &hotGen{
		seed:      seed,
		w:         uint64(w),
		rng:       rand.New(rand.NewSource(s)),
		counters:  workload.NewZipfian(hotKeys, workload.DefaultZipfTheta, s+1),
		registers: workload.NewZipfian(hotKeys, workload.DefaultZipfTheta, s+2),
	}
}

// hotOp is one generated op: an increment of counter idx, or a Put of tag
// to register idx.
type hotOp struct {
	put bool
	idx uint64
	tag uint64
}

func (g *hotGen) next() hotOp {
	if g.rng.Float64() < hotPutFrac {
		g.seq++
		return hotOp{put: true, idx: g.registers.Next(), tag: g.w<<40 | g.seq}
	}
	return hotOp{idx: g.counters.Next()}
}

func (op hotOp) pipeOp(seed int64) pipeOp {
	if op.put {
		return pipeOp{key: registerKey(op.idx), value: stamp(seed, op.tag)}
	}
	return pipeOp{key: counterKey(op.idx), incr: true, delta: 1}
}

func hotPreload(seed int64) (keys, values [][]byte) {
	for i := uint64(0); i < hotKeys; i++ {
		keys = append(keys, counterKey(i), registerKey(i))
		values = append(values, []byte("0"), stamp(seed, 0))
	}
	return keys, values
}

func hotCommands(seed int64, _ sizes) ([]*kv.Command, func() []*kv.Command) {
	keys, values := hotPreload(seed)
	preload := make([]*kv.Command, len(keys))
	for i := range keys {
		preload[i] = &kv.Command{Op: kv.OpPut, Key: keys[i], Value: values[i]}
	}
	gens := []*hotGen{newHotGen(seed, 0), newHotGen(seed, 1)}
	turn := 0
	return preload, func() []*kv.Command {
		g := gens[turn%workers]
		turn++
		cmds := make([]*kv.Command, hotDepth)
		for i := range cmds {
			op := g.next().pipeOp(seed)
			if op.incr {
				cmds[i] = &kv.Command{Op: kv.OpIncrement, Key: op.key, Delta: op.delta}
			} else {
				cmds[i] = &kv.Command{Op: kv.OpPut, Key: op.key, Value: op.value}
			}
		}
		return cmds
	}
}

type hot struct {
	seed int64
	cls  []client
	gens []*hotGen
	// Per worker: acknowledged increments per counter, the last
	// acknowledged tag per register, and the tags of Puts that failed
	// (their outcome is unknown, so the register may hold them too).
	incr   [][hotKeys]int64
	unsure [][hotKeys]int64
	last   [][hotKeys]uint64
	failed map[uint64]bool
	mu     sync.Mutex // guards failed
}

func newHot(seed int64) *hot {
	return &hot{seed: seed, failed: make(map[uint64]bool)}
}

func (r *hot) setup(ctx context.Context, d deployment, host func(int) string) error {
	cls, err := openClients(d, host)
	if err != nil {
		return err
	}
	r.cls = cls
	for w := 0; w < workers; w++ {
		r.gens = append(r.gens, newHotGen(r.seed, w))
	}
	r.incr = make([][hotKeys]int64, workers)
	r.unsure = make([][hotKeys]int64, workers)
	r.last = make([][hotKeys]uint64, workers)
	keys, values := hotPreload(r.seed)
	return preloadPuts(ctx, cls[0], keys, values)
}

func (r *hot) unit(ctx context.Context, w int) error {
	ops := make([]hotOp, hotDepth)
	pops := make([]pipeOp, hotDepth)
	for i := range ops {
		ops[i] = r.gens[w].next()
		pops[i] = ops[i].pipeOp(r.seed)
	}
	errs := r.cls[w].flush(ctx, pops)
	for i, op := range ops {
		switch {
		case errs[i] == nil && op.put:
			r.last[w][op.idx] = op.tag
		case errs[i] == nil:
			r.incr[w][op.idx]++
		case op.put:
			r.mu.Lock()
			r.failed[op.tag] = true
			r.mu.Unlock()
		default:
			r.unsure[w][op.idx]++
		}
	}
	return errors.Join(errs...)
}

// check verifies RIFL exactly-once on the counters — each must equal its
// acknowledged increments — and that every register holds a value some
// worker wrote last.
func (r *hot) check(ctx context.Context) (int64, error) {
	var bad int64
	c := r.cls[0]
	for i := uint64(0); i < hotKeys; i++ {
		var want, slack int64
		for w := 0; w < workers; w++ {
			want += r.incr[w][i]
			slack += r.unsure[w][i]
		}
		got, ok, err := c.Get(ctx, counterKey(i))
		if err != nil {
			return bad, err
		}
		n, perr := strconv.ParseInt(string(got), 10, 64)
		if !ok || perr != nil || n < want || n > want+slack {
			bad++
		}

		got, ok, err = c.Get(ctx, registerKey(i))
		if err != nil {
			return bad, err
		}
		match := false
		for w := 0; w < workers && ok; w++ {
			match = match || bytes.Equal(got, stamp(r.seed, r.last[w][i]))
		}
		for tag := range r.failed {
			match = match || bytes.Equal(got, stamp(r.seed, tag))
		}
		if !match {
			bad++
		}
	}
	return bad, nil
}

func (r *hot) stats() protoStats { return sumStats(r.cls) }
func (r *hot) sessions() int     { return len(r.cls) }
func (r *hot) close()            { closeClients(r.cls) }

// ---- txn_cross_shard: transfers between one account on each shard.

const initialBalance = 1000

// accounts lists n account keys per shard, in key order, for a 2-shard
// deployment.
func accounts(d deployment, n int) [2][][]byte {
	var acc [2][][]byte
	for i := uint64(0); len(acc[0]) < n || len(acc[1]) < n; i++ {
		k := workload.Key(i, keySize)
		if s := d.shardFor(k); len(acc[s]) < n {
			acc[s] = append(acc[s], k)
		}
	}
	return acc
}

// transfer moves amount between account a on shard 0 and account b on
// shard 1: from a to b when forward, else from b to a.
type transfer struct {
	a, b    int // account index on shard 0 and shard 1
	forward bool
	amount  int64
}

type transferGen struct {
	rng  *rand.Rand
	a, b *workload.Uniform
}

func newTransferGen(seed int64, w, n int) *transferGen {
	s := seed*16 + int64(w)*4
	return &transferGen{
		rng: rand.New(rand.NewSource(s)),
		a:   workload.NewUniform(uint64(n), s+1),
		b:   workload.NewUniform(uint64(n), s+2),
	}
}

func (g *transferGen) next() transfer {
	return transfer{a: int(g.a.Next()), b: int(g.b.Next()), forward: g.rng.Intn(2) == 0, amount: 1 + g.rng.Int63n(100)}
}

// transferCommands replays a transfer as the two Puts its commit applies.
// The account keys come from the first accounts in key order, as if all
// were on one store.
func transferCommands(seed int64, sz sizes) ([]*kv.Command, func() []*kv.Command) {
	key := func(s, i int) []byte { return workload.Key(uint64(s*sz.accounts+i), keySize) }
	var preload []*kv.Command
	for s := 0; s < 2; s++ {
		for i := 0; i < sz.accounts; i++ {
			preload = append(preload, &kv.Command{Op: kv.OpPut, Key: key(s, i), Value: []byte(strconv.Itoa(initialBalance))})
		}
	}
	gens := []*transferGen{newTransferGen(seed, 0, sz.accounts), newTransferGen(seed, 1, sz.accounts)}
	turn := 0
	return preload, func() []*kv.Command {
		t := gens[turn%workers].next()
		turn++
		return []*kv.Command{
			{Op: kv.OpPut, Key: key(0, t.a), Value: []byte(strconv.FormatInt(initialBalance-t.amount, 10))},
			{Op: kv.OpPut, Key: key(1, t.b), Value: []byte(strconv.FormatInt(initialBalance+t.amount, 10))},
		}
	}
}

// maxTxnTries bounds the attempts of one transfer; conflicts are rare
// (two clients over 512 accounts per shard), so reaching it means a bug.
const maxTxnTries = 100

type transfers struct {
	seed    int64
	n       int
	cls     []client
	gens    []*transferGen
	acc     [2][][]byte
	mu      sync.Mutex
	commits int64
	aborts  int64
}

func newTransfers(seed int64, sz sizes) *transfers {
	return &transfers{seed: seed, n: sz.accounts}
}

func (r *transfers) setup(ctx context.Context, d deployment, host func(int) string) error {
	cls, err := openClients(d, host)
	if err != nil {
		return err
	}
	r.cls = cls
	r.acc = accounts(d, r.n)
	for w := 0; w < workers; w++ {
		r.gens = append(r.gens, newTransferGen(r.seed, w, r.n))
	}
	keys := append(append([][]byte(nil), r.acc[0]...), r.acc[1]...)
	values := make([][]byte, len(keys))
	for i := range values {
		values[i] = []byte(strconv.Itoa(initialBalance))
	}
	return preloadPuts(ctx, cls[0], keys, values)
}

func balance(ctx context.Context, t txnHandle, key []byte) (int64, error) {
	v, ok, err := t.Get(ctx, key)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("account %s missing", key)
	}
	return strconv.ParseInt(string(v), 10, 64)
}

// unit commits one transfer: Get both accounts, Put both, Commit. A
// version-conflict abort is retried with a fresh transaction.
func (r *transfers) unit(ctx context.Context, w int) error {
	tr := r.gens[w].next()
	from, to := r.acc[0][tr.a], r.acc[1][tr.b]
	if !tr.forward {
		from, to = to, from
	}
	for try := 0; try < maxTxnTries; try++ {
		t := r.cls[w].txn()
		fb, err := balance(ctx, t, from)
		if err != nil {
			return err
		}
		tb, err := balance(ctx, t, to)
		if err != nil {
			return err
		}
		t.Put(from, []byte(strconv.FormatInt(fb-tr.amount, 10)))
		t.Put(to, []byte(strconv.FormatInt(tb+tr.amount, 10)))
		err = t.Commit(ctx)
		r.mu.Lock()
		if err == nil {
			r.commits++
		} else if errors.Is(err, curp.ErrTxnAborted) {
			r.aborts++
		}
		r.mu.Unlock()
		if !errors.Is(err, curp.ErrTxnAborted) {
			return err
		}
	}
	return fmt.Errorf("transfer aborted %d times", maxTxnTries)
}

// check verifies that transfers conserved the sum of all balances.
func (r *transfers) check(ctx context.Context) (int64, error) {
	var sum int64
	for _, keys := range r.acc {
		for _, k := range keys {
			v, ok, err := r.cls[0].Get(ctx, k)
			if err != nil {
				return 0, err
			}
			b, perr := strconv.ParseInt(string(v), 10, 64)
			if !ok || perr != nil {
				return 1, nil
			}
			sum += b
		}
	}
	if want := int64(2*r.n) * initialBalance; sum != want {
		return 1, nil
	}
	return 0, nil
}

func (r *transfers) stats() protoStats { return sumStats(r.cls) }
func (r *transfers) sessions() int     { return len(r.cls) }
func (r *transfers) close()            { closeClients(r.cls) }

func (r *transfers) outcomes() (commits, aborts int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commits, r.aborts
}

// ---- session_churn: open a client, 4 Puts, close.

const churnPuts = 4

// churnKey is the key of Put j of worker w's session s; keys never repeat.
func churnKey(w, s, j int) []byte {
	return workload.Key(uint64(w)<<32|uint64(s*churnPuts+j), keySize)
}

func churnValue(seed int64, w, s, j int) []byte {
	return stamp(seed, uint64(w)<<32|uint64(s*churnPuts+j))
}

func churnCommands(seed int64, _ sizes) ([]*kv.Command, func() []*kv.Command) {
	turn := 0
	return nil, func() []*kv.Command {
		w, s := turn%workers, turn/workers
		turn++
		cmds := make([]*kv.Command, churnPuts)
		for j := range cmds {
			cmds[j] = &kv.Command{Op: kv.OpPut, Key: churnKey(w, s, j), Value: churnValue(seed, w, s, j)}
		}
		return cmds
	}
}

type churn struct {
	seed   int64
	d      deployment
	host   func(int) string
	next   [workers]int    // next session index per worker
	ok     [workers][]bool // session's last Put acknowledged
	mu     sync.Mutex
	st     protoStats
	opened int
}

func newChurn(seed int64) *churn { return &churn{seed: seed} }

func (r *churn) setup(_ context.Context, d deployment, host func(int) string) error {
	r.d, r.host = d, host
	return nil
}

func (r *churn) unit(ctx context.Context, w int) error {
	s := r.next[w]
	r.next[w]++
	c, err := r.d.newClient(r.host(w))
	if err != nil {
		r.ok[w] = append(r.ok[w], false)
		return err
	}
	for j := 0; j < churnPuts && err == nil; j++ {
		_, err = c.Put(ctx, churnKey(w, s, j), churnValue(r.seed, w, s, j))
	}
	r.ok[w] = append(r.ok[w], err == nil)
	st := c.stats()
	c.Close()
	r.mu.Lock()
	r.st.add(st)
	r.opened++
	r.mu.Unlock()
	return err
}

// check reads back each session's last Put.
func (r *churn) check(ctx context.Context) (int64, error) {
	c, err := r.d.newClient("bench-check")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var bad int64
	for w := 0; w < workers; w++ {
		for s, acked := range r.ok[w] {
			if !acked {
				continue
			}
			got, ok, err := c.Get(ctx, churnKey(w, s, churnPuts-1))
			if err != nil {
				return bad, err
			}
			if !ok || !bytes.Equal(got, churnValue(r.seed, w, s, churnPuts-1)) {
				bad++
			}
		}
	}
	return bad, nil
}

func (r *churn) stats() protoStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

func (r *churn) sessions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opened
}

func (r *churn) close() {}
