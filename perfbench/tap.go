package main

import (
	"encoding/binary"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"curp/internal/cluster"
	"curp/internal/transport"
)

// Wire layout of an internal/rpc frame (internal/rpc/frame.go): a 4-byte
// little-endian body length, then the body, which opens with the request
// id (8 bytes), the frame kind (1) and the code (2) — the opcode of a
// request, the status of a response.
const (
	lenPrefix    = 4
	frameHeader  = 8 + 1 + 2
	kindResponse = 1
)

// frameInfo is the header of one frame and its size on the wire.
type frameInfo struct {
	reqID uint64
	kind  uint8
	code  uint16
	size  int
}

// frameParser follows one direction of a connection frame by frame. It
// buffers only the 15 header bytes, so the bytes themselves pass through
// untouched.
type frameParser struct {
	hdr  [lenPrefix + frameHeader]byte
	have int // header bytes of the current frame seen so far
	left int // body bytes after the header still to come
}

// feed consumes b and calls emit once for every frame completed in it.
func (p *frameParser) feed(b []byte, emit func(frameInfo)) {
	for len(b) > 0 {
		if p.have < len(p.hdr) {
			n := copy(p.hdr[p.have:], b)
			p.have += n
			b = b[n:]
			if p.have < len(p.hdr) {
				return
			}
			p.left = int(binary.LittleEndian.Uint32(p.hdr[:])) - frameHeader
		}
		n := min(p.left, len(b))
		p.left -= n
		b = b[n:]
		if p.left <= 0 {
			emit(frameInfo{
				reqID: binary.LittleEndian.Uint64(p.hdr[lenPrefix:]),
				kind:  p.hdr[lenPrefix+8],
				code:  binary.LittleEndian.Uint16(p.hdr[lenPrefix+9:]),
				size:  lenPrefix + int(binary.LittleEndian.Uint32(p.hdr[:])),
			})
			p.have, p.left = 0, 0
		}
	}
}

// RPC opcode families the ledger reports, in output order.
var families = [...]string{
	"update", "read", "sync", "witness_record", "witness_gc", "backup_append",
	"txn_prepare", "txn_decide", "register_client", "ctrl_append", "other",
}

// familyOf maps an opcode to its index in families.
func familyOf(op uint16) int {
	switch op {
	case cluster.OpUpdate, cluster.OpUpdateBatch:
		return 0
	case cluster.OpRead, cluster.OpReadStale:
		return 1
	case cluster.OpSync:
		return 2
	case cluster.OpWitnessRecord, cluster.OpWitnessRecordBatch:
		return 3
	case cluster.OpWitnessGC:
		return 4
	case cluster.OpBackupAppend:
		return 5
	case cluster.OpTxnPrepare:
		return 6
	case cluster.OpTxnDecide:
		return 7
	case cluster.OpRegisterClient:
		return 8
	case cluster.OpCtrlAppend:
		return 9
	}
	return len(families) - 1 // other
}

// rpcSpan is one RPC as its caller saw it: request written → response
// read, parented to the client op in flight on the calling host (0 for
// calls made by servers).
type rpcSpan struct {
	parent     uint64
	fam        uint8
	start, end int64 // ns since the tap's epoch
	bytes      int32 // request + response frames
}

// opSpan is one client unit (a Put, a flush, a txn or a session).
type opSpan struct {
	id         uint64
	worker     int
	start, end int64
}

// famStats accumulates one opcode family.
type famStats struct {
	calls, bytes int64
	rtt, server  []int64 // ns samples
}

// tap is a transport.Network decorator that reads the rpc frame headers
// crossing every connection. Requests are counted on the dialing side and
// responses on the accepting side, so each frame is counted once. It never
// alters, splits or merges the bytes: each Write reaches the wrapped
// connection as one Write.
type tap struct {
	inner transport.Network
	epoch time.Time

	opID atomic.Uint64 // last client op id handed out

	mu    sync.Mutex
	hosts map[string]*atomic.Uint64 // client host → op in flight
	data  *tapData
}

// tapData is what the tap recorded since the last take.
type tapData struct {
	fams [len(families)]famStats
	msgs int64
	rpcs []rpcSpan
	ops  []opSpan
}

func newTap(inner transport.Network) *tap {
	return &tap{inner: inner, epoch: time.Now(), hosts: make(map[string]*atomic.Uint64), data: new(tapData)}
}

// take returns the recordings so far and starts afresh.
func (t *tap) take() *tapData {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data
	t.data = new(tapData)
	return d
}

// merge adds b's recordings to a (nil a is empty) and returns the sum.
func (a *tapData) merge(b *tapData) *tapData {
	if a == nil {
		return b
	}
	for i := range a.fams {
		fa, fb := &a.fams[i], &b.fams[i]
		fa.calls += fb.calls
		fa.bytes += fb.bytes
		fa.rtt = append(fa.rtt, fb.rtt...)
		fa.server = append(fa.server, fb.server...)
	}
	a.msgs += b.msgs
	a.rpcs = append(a.rpcs, b.rpcs...)
	a.ops = append(a.ops, b.ops...)
	return a
}

func (t *tap) now() int64 { return int64(time.Since(t.epoch)) }

// clientHost registers name as a client host whose RPCs are parented to
// the op it has in flight; call it before the host dials.
func (t *tap) clientHost(name string) *atomic.Uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := t.hosts[name]
	if slot == nil {
		slot = new(atomic.Uint64)
		t.hosts[name] = slot
	}
	return slot
}

// Listen implements transport.Network.
func (t *tap) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tapListener{Listener: l, t: t}, nil
}

// Dial implements transport.Network.
func (t *tap) Dial(from, addr string) (net.Conn, error) {
	c, err := t.inner.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	slot := t.hosts[from]
	t.mu.Unlock()
	return &tapConn{Conn: c, t: t, dialed: true, op: slot, pending: make(map[uint64]pendingRPC)}, nil
}

type tapListener struct {
	net.Listener
	t *tap
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, t: l.t, pending: make(map[uint64]pendingRPC)}, nil
}

// pendingRPC is a request seen on a connection whose response has not
// crossed it yet.
type pendingRPC struct {
	fam    uint8
	start  int64
	bytes  int32
	parent uint64
}

// tapConn decorates one end of a connection. A dialed end writes requests
// and reads responses; an accepted end the reverse.
type tapConn struct {
	net.Conn
	t      *tap
	dialed bool
	op     *atomic.Uint64 // the dialing client host's op slot; nil otherwise

	mu      sync.Mutex
	out, in frameParser
	pending map[uint64]pendingRPC
}

func (c *tapConn) Write(b []byte) (int, error) {
	now := c.t.now()
	c.mu.Lock()
	c.out.feed(b, func(f frameInfo) { c.sent(f, now) })
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		now := c.t.now()
		c.mu.Lock()
		c.in.feed(b[:n], func(f frameInfo) { c.received(f, now) })
		c.mu.Unlock()
	}
	return n, err
}

// sent handles a frame this end wrote: a request when dialed, else a
// response closing the server-side interval.
func (c *tapConn) sent(f frameInfo, now int64) {
	t := c.t
	if c.dialed {
		if f.kind == kindResponse {
			return
		}
		var parent uint64
		if c.op != nil {
			parent = c.op.Load()
		}
		fam := uint8(familyOf(f.code))
		c.pending[f.reqID] = pendingRPC{fam: fam, start: now, bytes: int32(f.size), parent: parent}
		t.mu.Lock()
		t.data.msgs++
		t.data.fams[fam].calls++
		t.data.fams[fam].bytes += int64(f.size)
		t.mu.Unlock()
		return
	}
	p, ok := c.pending[f.reqID]
	if !ok || f.kind != kindResponse {
		return
	}
	delete(c.pending, f.reqID)
	t.mu.Lock()
	t.data.msgs++
	t.data.fams[p.fam].bytes += int64(f.size)
	t.data.fams[p.fam].server = append(t.data.fams[p.fam].server, now-p.start)
	t.mu.Unlock()
}

// received handles a frame this end read: a response closing the caller's
// round trip when dialed, else a request opening the server interval.
func (c *tapConn) received(f frameInfo, now int64) {
	if !c.dialed {
		if f.kind != kindResponse {
			c.pending[f.reqID] = pendingRPC{fam: uint8(familyOf(f.code)), start: now}
		}
		return
	}
	p, ok := c.pending[f.reqID]
	if !ok || f.kind != kindResponse {
		return
	}
	delete(c.pending, f.reqID)
	t := c.t
	t.mu.Lock()
	t.data.fams[p.fam].rtt = append(t.data.fams[p.fam].rtt, now-p.start)
	t.data.rpcs = append(t.data.rpcs, rpcSpan{parent: p.parent, fam: p.fam, start: p.start, end: now, bytes: p.bytes + int32(f.size)})
	t.mu.Unlock()
}

// opDone records a finished client op.
func (t *tap) opDone(s opSpan) {
	t.mu.Lock()
	t.data.ops = append(t.data.ops, s)
	t.mu.Unlock()
}

// interval is a half-open span of time in ns.
type interval struct{ start, end int64 }

// clip restricts ivs to [lo, hi], dropping the empty ones.
func clip(ivs []interval, lo, hi int64) []interval {
	out := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			out = append(out, interval{s, e})
		}
	}
	return out
}

// coverage is the length of the union of ivs within [lo, hi]: the time a
// parent span spent waiting on at least one child.
func coverage(ivs []interval, lo, hi int64) int64 {
	ivs = clip(ivs, lo, hi)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start > curE:
			total += curE - curS
			curS, curE = iv.start, iv.end
		default:
			curE = max(curE, iv.end)
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(ivs []interval, lo, hi int64) int64 {
	return hi - lo - coverage(ivs, lo, hi)
}

// criticalPath walks back from hi through the children: at each step it
// takes the child ending last before the cursor, counts its length and
// moves the cursor to its start. The sum is the RPC time the parent could
// not have overlapped with anything.
func criticalPath(ivs []interval, lo, hi int64) int64 {
	ivs = clip(ivs, lo, hi)
	var total int64
	cursor := hi
	for {
		best := -1
		for i, iv := range ivs {
			if iv.end <= cursor && (best < 0 || iv.end > ivs[best].end) {
				best = i
			}
		}
		if best < 0 {
			return total
		}
		total += ivs[best].end - ivs[best].start
		cursor = ivs[best].start
	}
}
