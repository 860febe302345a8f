package metrics

import "sync"

// WireSpan is one node-local observation inside a distributed trace. It
// carries hashes and verdicts, never payloads, so traces are safe to
// export. IDs are uint64 (JSON-exact in Go's encoder);
// curpctl renders them as %016x.
type WireSpan struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_id,omitempty"`
	Node    string `json:"node"`
	Role    string `json:"role"`  // client|master|witness|backup|coordinator
	Shard   int    `json:"shard"` // -1 when unknown
	Stage   string `json:"stage"` // client-flush, witness-record, apply, sync-wait, ...
	Op      string `json:"op,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Start   int64  `json:"start_ns"` // unix nanos
	Dur     int64  `json:"dur_ns"`
	Err     string `json:"err,omitempty"`
}

// spanRing is the bounded buffer every span lands in regardless of
// sampling: tail-based promotion needs the boring early spans of a trace
// that only turns interesting later (possibly on another node). Striped by
// span ID so concurrent recorders rarely share a lock; each write is one
// short critical section with zero allocation.
const ringStripes = 8

type spanRing struct {
	stripes [ringStripes]ringStripe
}

type ringStripe struct {
	mu   sync.Mutex
	cap  int
	buf  []WireSpan // allocated on first use
	next int
	n    int // valid entries (≤ len(buf))
}

func newSpanRing(capacity int) *spanRing {
	per := capacity / ringStripes
	if per < 1 {
		per = 1
	}
	r := &spanRing{}
	for i := range r.stripes {
		r.stripes[i].cap = per
	}
	return r
}

func (r *spanRing) add(s WireSpan) {
	st := &r.stripes[s.SpanID%ringStripes]
	st.mu.Lock()
	if st.buf == nil {
		// Lazily allocated: every server owns a collector, but only nodes
		// that actually receive traced requests pay for the buffer.
		st.buf = make([]WireSpan, st.cap)
	}
	st.buf[st.next] = s
	st.next = (st.next + 1) % len(st.buf)
	if st.n < len(st.buf) {
		st.n++
	}
	st.mu.Unlock()
}

// collect appends every buffered span of traceID to dst.
func (r *spanRing) collect(traceID uint64, dst []WireSpan) []WireSpan {
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for j := 0; j < st.n; j++ {
			if st.buf[j].TraceID == traceID {
				dst = append(dst, st.buf[j])
			}
		}
		st.mu.Unlock()
	}
	return dst
}
