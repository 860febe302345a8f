package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"curp/internal/cluster"
	"curp/internal/rpc"
	"curp/internal/transport"
)

// frameBytes encodes one rpc frame the way internal/rpc writes it.
func frameBytes(reqID uint64, kind uint8, code uint16, payload []byte) []byte {
	b := make([]byte, lenPrefix+frameHeader+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(frameHeader+len(payload)))
	binary.LittleEndian.PutUint64(b[4:], reqID)
	b[12] = kind
	binary.LittleEndian.PutUint16(b[13:], code)
	copy(b[15:], payload)
	return b
}

// countingNet records every Write that reaches the wrapped connections.
type countingNet struct {
	transport.Network
	mu     sync.Mutex
	writes [][]byte
}

func (n *countingNet) Dial(from, addr string) (net.Conn, error) {
	c, err := n.Network.Dial(from, addr)
	return &countingConn{Conn: c, n: n}, err
}

func (n *countingNet) Listen(addr string) (net.Listener, error) {
	l, err := n.Network.Listen(addr)
	return &countingListener{Listener: l, n: n}, err
}

type countingListener struct {
	net.Listener
	n *countingNet
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return &countingConn{Conn: c, n: l.n}, err
}

type countingConn struct {
	net.Conn
	n *countingNet
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.n.mu.Lock()
	c.n.writes = append(c.n.writes, append([]byte(nil), b...))
	c.n.mu.Unlock()
	return c.Conn.Write(b)
}

func TestFrameParserChunking(t *testing.T) {
	var stream []byte
	var want []frameInfo
	for i, size := range []int{0, 1, 17, 300} {
		f := frameBytes(uint64(i+1), uint8(i%2), uint16(i+3), bytes.Repeat([]byte{byte(i)}, size))
		stream = append(stream, f...)
		want = append(want, frameInfo{reqID: uint64(i + 1), kind: uint8(i % 2), code: uint16(i + 3), size: len(f)})
	}
	for _, chunk := range []int{1, 2, 7, 15, 16, len(stream)} {
		var p frameParser
		var got []frameInfo
		for b := stream; len(b) > 0; {
			n := min(chunk, len(b))
			p.feed(b[:n], func(f frameInfo) { got = append(got, f) })
			b = b[n:]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: got %+v, want %+v", chunk, got, want)
		}
	}
}

// The tap must pass bytes through unchanged, one Write per Write, in both
// directions.
func TestTapIsByteTransparent(t *testing.T) {
	inner := &countingNet{Network: transport.NewMemNetwork(nil)}
	tp := newTap(inner)
	l, err := tp.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reqs := [][]byte{
		frameBytes(1, 0, cluster.OpUpdate, []byte("hello")),
		frameBytes(2, 0, cluster.OpWitnessRecord, bytes.Repeat([]byte("x"), 1000)),
		frameBytes(3, 0, cluster.OpSync, nil),
	}
	var resps [][]byte
	var reqStream, respStream []byte
	for i, f := range reqs {
		r := frameBytes(uint64(i+1), kindResponse, 0, bytes.Repeat([]byte("y"), 10*i))
		resps = append(resps, r)
		reqStream = append(reqStream, f...)
		respStream = append(respStream, r...)
	}
	received := make(chan []byte, 1)
	go func() {
		var buf []byte
		defer func() { received <- buf }()
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf = make([]byte, len(reqStream))
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		for _, r := range resps {
			if _, err := c.Write(r); err != nil {
				return
			}
		}
	}()
	c, err := tp.Dial("cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range reqs {
		if _, err := c.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	back := make([]byte, len(respStream))
	if _, err := io.ReadFull(c, back); err != nil {
		t.Fatal(err)
	}
	if got := <-received; !bytes.Equal(got, reqStream) {
		t.Fatal("the server read other bytes than the client wrote")
	}
	if !bytes.Equal(back, respStream) {
		t.Fatal("the client read other bytes than the server wrote")
	}
	inner.mu.Lock()
	defer inner.mu.Unlock()
	if want := append(append([][]byte(nil), reqs...), resps...); !reflect.DeepEqual(inner.writes, want) {
		t.Fatalf("%d writes reached the wrapped conns, want the %d frames one by one", len(inner.writes), len(want))
	}
	d := tp.take()
	if d.fams[0].calls != 1 || d.fams[3].calls != 1 || d.fams[2].calls != 1 || d.msgs != 6 {
		t.Fatalf("counts: update %d record %d sync %d msgs %d", d.fams[0].calls, d.fams[3].calls, d.fams[2].calls, d.msgs)
	}
}

// Call and byte counts must be exact on a scripted rpc exchange, and every
// call must be parented to the op in flight on the calling host.
func TestTapCountsScriptedRPC(t *testing.T) {
	tp := newTap(transport.NewMemNetwork(nil))
	srv := rpc.NewServer()
	reply := func(n int) rpc.Handler {
		return func(context.Context, []byte) ([]byte, error) { return make([]byte, n), nil }
	}
	srv.Handle(cluster.OpUpdate, reply(20))
	srv.Handle(cluster.OpWitnessRecord, reply(3))
	l, err := tp.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv.Go(l)
	defer srv.Close()
	slot := tp.clientHost("cli")
	cl, err := rpc.Dial(tp, "cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tp.take()

	ctx := context.Background()
	slot.Store(7)
	for i := 0; i < 5; i++ {
		if _, err := cl.Call(ctx, cluster.OpUpdate, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Call(ctx, cluster.OpWitnessRecord, make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	d := tp.take()
	const hdr = lenPrefix + frameHeader
	upd, rec := d.fams[familyOf(cluster.OpUpdate)], d.fams[familyOf(cluster.OpWitnessRecord)]
	if upd.calls != 5 || upd.bytes != 5*(hdr+10+hdr+20) || len(upd.rtt) != 5 || len(upd.server) != 5 {
		t.Fatalf("update: calls %d bytes %d rtt %d server %d", upd.calls, upd.bytes, len(upd.rtt), len(upd.server))
	}
	if rec.calls != 3 || rec.bytes != 3*(hdr+40+hdr+3) || len(rec.rtt) != 3 {
		t.Fatalf("witness_record: calls %d bytes %d rtt %d", rec.calls, rec.bytes, len(rec.rtt))
	}
	if d.msgs != 16 || len(d.rpcs) != 8 {
		t.Fatalf("msgs %d spans %d, want 16 and 8", d.msgs, len(d.rpcs))
	}
	for _, s := range d.rpcs {
		if s.parent != 7 || s.end < s.start {
			t.Fatalf("span %+v", s)
		}
	}
	for i, rtt := range upd.rtt {
		if upd.server[i] < 0 || rtt < 0 {
			t.Fatalf("negative time: rtt %d server %d", rtt, upd.server[i])
		}
	}
}

func TestSpanArithmetic(t *testing.T) {
	// Op [0,100): children [10,30) and [20,50) overlap, [60,70) stands
	// alone, [90,120) runs past the op's end.
	ivs := []interval{{10, 30}, {20, 50}, {60, 70}, {90, 120}}
	if got := coverage(ivs, 0, 100); got != 40+10+10 {
		t.Fatalf("coverage %d, want 60", got)
	}
	if got := selfTime(ivs, 0, 100); got != 40 {
		t.Fatalf("self time %d, want 40", got)
	}
	// Walking back from 100: [90,100) clipped, then [60,70), then [20,50)
	// (ends last before 60), then nothing ends before 20.
	if got := criticalPath(ivs, 0, 100); got != 10+10+30 {
		t.Fatalf("critical path %d, want 50", got)
	}
	if got := selfTime(nil, 5, 25); got != 20 {
		t.Fatalf("childless self time %d, want 20", got)
	}

	td := &tapData{
		ops: []opSpan{{id: 1, start: 0, end: 100}, {id: 2, start: 200, end: 300}},
		rpcs: []rpcSpan{
			{parent: 1, start: 10, end: 30}, {parent: 1, start: 20, end: 50},
			{parent: 1, start: 60, end: 70}, {parent: 1, start: 90, end: 120},
			{parent: 2, start: 200, end: 300},
			{parent: 0, start: 0, end: 1000}, // a server's call: no op
		},
	}
	led := ledger(td)
	// Op 1: wait 60, self 40, residue 60−50 = 10. Op 2: wait 100, self 0.
	if want := 10.0 / 200; led.residueFrac != want {
		t.Fatalf("residue %v, want %v", led.residueFrac, want)
	}
	if led.selfP50 != 0 || led.waitP50 != 0.06 {
		t.Fatalf("self p50 %v wait p50 %v (µs)", led.selfP50, led.waitP50)
	}
}

func TestPromParsing(t *testing.T) {
	text := []byte(`# TYPE x_total counter
x_total{reason="a"} 3
x_total{reason="b"} 4
h_bucket{le="1"} 2
h_bucket{le="2"} 6
h_bucket{le="+Inf"} 6
h_sum 9
h_count 6
`)
	s := parseProm(text)
	if s.sum("x_total") != 7 || s.max("x_total") != 4 {
		t.Fatalf("sum %v max %v", s.sum("x_total"), s.max("x_total"))
	}
	if q := s.quantile("h", 0.5); q != 1.25 {
		t.Fatalf("p50 %v, want 1.25", q)
	}
	if d := s.delta(parseProm([]byte("x_total{reason=\"a\"} 1\n"))); d.sum("x_total") != 6 {
		t.Fatalf("delta %v", d)
	}
}

// Equal seeds must give identical op streams; another seed another one.
func TestSeedDeterminism(t *testing.T) {
	sz := sizes{putKeys: 512, accounts: 32, unitFrac: 1}
	stream := func(s spec, seed int64) [][]byte {
		preload, next := s.unitCommands(seed, sz)
		var out [][]byte
		for _, c := range preload {
			out = append(out, c.Encode())
		}
		for i := 0; i < 300; i++ {
			for _, c := range next() {
				out = append(out, c.Encode())
			}
		}
		return out
	}
	for _, s := range specs() {
		a, b, c := stream(s, 42), stream(s, 42), stream(s, 43)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different streams", s.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", s.name)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// A short run of every workload, untraced and traced, must pass its
// checks and emit every metric BENCHMARK.json names, with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	small := sizes{putKeys: 256, accounts: 16, unitFrac: 0.01}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, s := range specs() {
		have = append(have, s.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, s := range specs() {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), s, 1, small, 0.1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", s.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", s.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", s.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestRefKernel(t *testing.T) {
	if got := refScale(refNominal, refNominal); got != 1 {
		t.Errorf("refScale at nominal speed = %v, want 1", got)
	}
	if got := refScale(refNominal, 3*refNominal); got != 0.5 {
		t.Errorf("refScale at half speed = %v, want 0.5", got)
	}
	if d := refTime(); d <= 0 {
		t.Fatalf("refTime = %v", d)
	}
	// The kernel must not allocate: a mark assist during a GC cycle of
	// the deployment would then count as host slowness.
	if n := testing.AllocsPerRun(3, func() { refRun(refStates[0]) }); n != 0 {
		t.Errorf("refRun allocates %v times per run", n)
	}
	c := startSteal()
	if a := c.availShare(time.Second); a < 0.05 || a > 1 {
		t.Errorf("availShare = %v, want within [0.05, 1]", a)
	}
	if a := (stealClock{}).availShare(time.Second); a != 1 {
		t.Errorf("availShare without a steal reading = %v, want 1", a)
	}
}

func TestQuietSlices(t *testing.T) {
	r := &phaseResult{slices: []sliceLat{
		{avail: 0.6, lat: []int64{9, 9}},
		{avail: 1, lat: []int64{1}},
		{avail: 0.9, lat: []int64{5, 5}},
		{avail: 0.9, lat: []int64{6}},
		{avail: 1, lat: []int64{2}},
	}}
	// The two unstolen slices hold 2 of 7 samples; the 0.9 slices come
	// next, both, since they tie; the 0.6 slice is left out.
	lat, used := r.quietSlices()
	if want := []int64{1, 2, 5, 5, 6}; used != 4 || !reflect.DeepEqual(lat, want) {
		t.Errorf("quietSlices = %v, %d; want %v, 4", lat, used, want)
	}
	if lat, used := (&phaseResult{}).quietSlices(); lat != nil || used != 0 {
		t.Errorf("quietSlices of no slices = %v, %d", lat, used)
	}
}
