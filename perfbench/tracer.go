package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cosched/internal/resmgr"
)

// maxSpans caps the spans a traced run keeps in memory; later spans still
// count in the layer totals but are not written out.
const maxSpans = 1 << 17

// span is one timed call at a layer boundary. Spans of one operation share
// Req; Parent is the span that caused this one (0 for an operation).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Lane   string `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanHandle identifies an open span.
type spanHandle struct {
	id   uint64
	idx  int // index in spanLog.spans, -1 once the cap is reached
	lane string
}

// spanLog keeps the spans of a traced run in memory. Each lane (one
// goroutine's chain of nested calls: a simulated domain, a live daemon,
// the client) has its own stack, so a span's parent is the innermost open
// span on its lane, or the current operation.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped uint64
	nextID  uint64
	req     uint64 // current operation number
	op      uint64 // current operation's span
	stacks  map[string][]uint64
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), stacks: make(map[string][]uint64)}
}

// beginOp opens the span of one measured operation.
func (l *spanLog) beginOp(name string) spanHandle {
	l.mu.Lock()
	l.req++
	l.op = 0
	l.mu.Unlock()
	h := l.begin(name, "")
	l.mu.Lock()
	l.op = h.id
	l.mu.Unlock()
	return h
}

// begin opens a span on lane.
func (l *spanLog) begin(name, lane string) spanHandle {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	h := spanHandle{id: l.nextID, idx: -1, lane: lane}
	parent := l.op
	if st := l.stacks[lane]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	if lane != "" {
		l.stacks[lane] = append(l.stacks[lane], h.id)
	}
	if len(l.spans) < maxSpans {
		h.idx = len(l.spans)
		l.spans = append(l.spans, span{ID: h.id, Parent: parent, Req: l.req, Name: name, Lane: lane, Start: now})
	} else {
		l.dropped++
	}
	return h
}

// end closes h.
func (l *spanLog) end(h spanHandle) {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	if h.lane != "" {
		st := l.stacks[h.lane]
		if n := len(st); n > 0 && st[n-1] == h.id {
			l.stacks[h.lane] = st[:n-1]
		}
	}
	if h.idx >= 0 {
		l.spans[h.idx].End = now
	}
}

// write stores the spans as JSON lines, followed by one summary line.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]uint64{"spans": uint64(len(l.spans)), "dropped": l.dropped}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer holds everything a traced run records: spans, the peer-call
// statistics at the cosched and proto layers, and counters read from
// the benchmark's observers, connections and journal filesystem.
type tracer struct {
	spans *spanLog
	calls *callStats // peer calls as the scheduler makes them
	rtt   *callStats // proto round trips on benchmark-owned connections

	wireBytes  atomic.Int64 // bytes on benchmark-owned peer connections
	writeBytes atomic.Int64 // journal bytes written

	holds, yields, releases atomic.Uint64

	mu           sync.Mutex
	fsyncSamples []float64 // seconds per journal fsync
}

// newTracer starts a tracer whose spans go to spans, shared across the
// operations of a run.
func newTracer(spans *spanLog) *tracer {
	t := &tracer{spans: spans}
	t.calls = newCallStats("cosched", t, false)
	t.rtt = newCallStats("proto", t, true)
	return t
}

// observer returns an observer that counts decisions for t.
func (t *tracer) observer() *countingObserver {
	return &countingObserver{next: resmgr.NullObserver{}, tr: t}
}

// countConn counts the bytes moved on c.
func (t *tracer) countConn(c net.Conn) net.Conn { return countingConn{Conn: c, n: &t.wireBytes} }

// spanPath is where a traced run writes its spans.
func spanPath(workload string, seed uint64) string {
	return fmt.Sprintf("%s/spans-%s-%d.jsonl", buildDir, workload, seed)
}
