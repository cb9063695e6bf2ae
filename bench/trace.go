package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/xport"
)

// Span kinds. Op spans are recorded by the client loop around each call
// into the counter; the rest by the Link/Session decorators below the
// xport core. A session span's parent is resolved after the run.
const (
	kindOp uint8 = iota // + opKind
	kindSessInc
	kindSessBatch
	kindSessRead
	kindDial
)

var kindNames = [...]string{"op", "session.inc", "session.batch", "session.read", "link.dial"}

// span is one timed interval at a layer boundary. ID is the span's
// index in the trace buffer; an op span's ID is the request identifier
// its children carry in Parent.
type span struct {
	Start, End int64 // ns since the tracer was created
	Parent     int32 // op span index, -1 for op spans and orphans
	Kind       uint8
	Op         uint8 // opKind, op spans only
	Client     int8  // client goroutine, op spans only (-1 otherwise)
}

// tracer keeps spans in one preallocated buffer; recording is an atomic
// slot reservation and a store. When the buffer is full further spans
// are counted and dropped, never reallocated, so tracing cannot start
// allocating mid-run.
type tracer struct {
	t0      time.Time
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
}

const traceCap = 1 << 20

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) add(s span) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = s
}

// record closes a decorator span opened at start.
func (t *tracer) record(kind uint8, start time.Time) {
	t.add(span{Start: t.since(start), End: t.since(time.Now()), Parent: -1, Kind: kind, Client: -1})
}

// reset forgets the spans recorded so far; no recorder may be running.
func (t *tracer) reset() {
	t.n.Store(0)
	t.dropped.Store(0)
}

func (t *tracer) spans() []span {
	return t.buf[:min(t.n.Load(), int64(len(t.buf)))]
}

// traceLink decorates a Link so every session it dials records a span
// around each protocol walk.
type traceLink struct {
	xport.Link
	tr *tracer
}

func (l traceLink) Dial(client uint64) (xport.Session, error) {
	start := time.Now()
	s, err := l.Link.Dial(client)
	l.tr.record(kindDial, start)
	if err != nil {
		return nil, err
	}
	ts := &traceSession{Session: s, tr: l.tr}
	// The datagram cost counters must keep reaching the Counter's
	// Packets/Retransmits totals, so a packet session stays one.
	if ps, ok := s.(xport.PacketSession); ok {
		return &tracePacketSession{traceSession: ts, ps: ps}, nil
	}
	return ts, nil
}

type traceSession struct {
	xport.Session
	tr *tracer
}

func (s *traceSession) Inc(pid int) (int64, error) {
	start := time.Now()
	v, err := s.Session.Inc(pid)
	s.tr.record(kindSessInc, start)
	return v, err
}

func (s *traceSession) Batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	start := time.Now()
	dst, err := s.Session.Batch(in, k, anti, dst)
	s.tr.record(kindSessBatch, start)
	return dst, err
}

func (s *traceSession) Read() (int64, error) {
	start := time.Now()
	v, err := s.Session.Read()
	s.tr.record(kindSessRead, start)
	return v, err
}

type tracePacketSession struct {
	*traceSession
	ps xport.PacketSession
}

func (s *tracePacketSession) Packets() int64     { return s.ps.Packets() }
func (s *tracePacketSession) Retransmits() int64 { return s.ps.Retransmits() }
func (s *tracePacketSession) Outstanding() int64 { return s.ps.Outstanding() }

// selfTime is a span's duration minus the part of its interval its
// children cover (overlapping or out-of-range children are clipped and
// unioned, so nothing is subtracted twice).
func selfTime(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	covered, edge := int64(0), parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, edge), min(c.End, parent.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return parent.End - parent.Start - covered
}

// resolveParents attaches every decorator span to the op that caused
// it. The decorators sit below the xport core and are not told which
// caller a flight serves, so causality is recovered from time: a
// session span belongs to the op span that contains it. When two
// clients' ops both contain it (a coalescing window flown by the other
// caller's goroutine) the later-started op wins — that is the parked
// caller whose token the window carries.
func resolveParents(spans []span) {
	byClient := map[int8][]int32{}
	for i, s := range spans {
		if s.Kind == kindOp {
			byClient[s.Client] = append(byClient[s.Client], int32(i))
		}
	}
	for _, ids := range byClient {
		sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].Start < spans[ids[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		if s.Kind == kindOp {
			continue
		}
		best := int32(-1)
		for _, ids := range byClient {
			// last op of this client starting at or before the span
			j := sort.Search(len(ids), func(k int) bool { return spans[ids[k]].Start > s.Start }) - 1
			if j < 0 {
				continue
			}
			p := spans[ids[j]]
			if p.End >= s.End && (best < 0 || p.Start > spans[best].Start) {
				best = ids[j]
			}
		}
		s.Parent = best
	}
}

// traceSummary is what the span arithmetic yields for the budget.
type traceSummary struct {
	ops        int64
	opMeanNs   float64 // mean op span
	selfMeanNs float64 // mean op self time: the layers above the link
	sessMeanNs float64 // mean time per op inside Session calls
	orphans    int64
}

func summarize(spans []span) traceSummary {
	resolveParents(spans)
	var sum traceSummary
	var kids []span // decorator spans with a parent, grouped by it below
	for _, s := range spans {
		switch {
		case s.Kind == kindOp:
		case s.Parent < 0:
			sum.orphans++
		default:
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Parent < kids[j].Parent })
	var opTotal, selfTotal int64
	k := 0
	for i, s := range spans {
		if s.Kind != kindOp {
			continue
		}
		from := k
		for k < len(kids) && kids[k].Parent == int32(i) {
			k++
		}
		sum.ops++
		opTotal += s.End - s.Start
		selfTotal += selfTime(s, kids[from:k])
	}
	if sum.ops > 0 {
		sum.opMeanNs = float64(opTotal) / float64(sum.ops)
		sum.selfMeanNs = float64(selfTotal) / float64(sum.ops)
		sum.sessMeanNs = sum.opMeanNs - sum.selfMeanNs
	}
	return sum
}

// traceFileSpans bounds the span dump: the head of the run is enough to
// read a flight's shape, and millions of spans as JSON are not.
const traceFileSpans = 50_000

type spanJSON struct {
	ID      int    `json:"id"`
	Op      int32  `json:"op"` // request id: the op span every span of one request shares
	Name    string `json:"name"`
	Client  int8   `json:"client"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
}

// writeTrace dumps the (already parent-resolved) spans to
// bench/out/trace-<workload>.json.
func writeTrace(dir, name string, tr *tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	spans := tr.spans()
	out := struct {
		Workload string     `json:"workload"`
		Recorded int        `json:"spans_recorded"`
		Dropped  int64      `json:"spans_dropped"`
		Written  int        `json:"spans_written"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: name, Recorded: len(spans), Dropped: tr.dropped.Load()}
	for i, s := range spans[:min(len(spans), traceFileSpans)] {
		j := spanJSON{ID: i, Op: s.Parent, Name: kindNames[s.Kind], Client: s.Client, StartNs: s.Start, EndNs: s.End, Parent: s.Parent}
		if s.Kind == kindOp {
			j.Op, j.Name = int32(i), "op."+opNames[s.Op]
		}
		out.Spans = append(out.Spans, j)
	}
	out.Written = len(out.Spans)
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
