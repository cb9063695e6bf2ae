package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/inproc"
	"repro/internal/wire"
	"repro/internal/xport"
)

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	op := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"two disjoint, out of order", []span{{Start: 160, End: 190}, {Start: 110, End: 120}}, 60},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 170}}, 40},
		{"nested child adds nothing", []span{{Start: 110, End: 180}, {Start: 120, End: 130}}, 30},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside the parent", []span{{Start: 10, End: 90}, {Start: 210, End: 300}}, 100},
	} {
		if got := selfTime(op, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Two clients on one wire: client 1 parks behind client 0's flight and
// client 0's goroutine then flies client 1's window. The window's
// session span lies inside both ops; it must go to the parked caller.
func TestResolveParentsAndSummary(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Kind: kindOp, Client: 0, Parent: -1},          // 0: owner's op
		{Start: 10, End: 40, Kind: kindSessInc, Client: -1, Parent: -1},    // 1: owner's own walk
		{Start: 20, End: 95, Kind: kindOp, Client: 1, Parent: -1},          // 2: parked caller's op
		{Start: 50, End: 90, Kind: kindSessBatch, Client: -1, Parent: -1},  // 3: the window, flown by client 0
		{Start: 200, End: 230, Kind: kindSessRead, Client: -1, Parent: -1}, // 4: no op contains it
	}
	sum := summarize(spans)
	if spans[1].Parent != 0 || spans[3].Parent != 2 || spans[4].Parent != -1 {
		t.Fatalf("parents = %d, %d, %d; want 0, 2, -1", spans[1].Parent, spans[3].Parent, spans[4].Parent)
	}
	// op 0: 100 − 30 = 70 self; op 2: 75 − 40 = 35 self.
	if sum.ops != 2 || sum.orphans != 1 {
		t.Fatalf("ops=%d orphans=%d, want 2, 1", sum.ops, sum.orphans)
	}
	if sum.opMeanNs != 87.5 || sum.selfMeanNs != 52.5 || sum.sessMeanNs != 35 {
		t.Errorf("op/self/session means = %v/%v/%v, want 87.5/52.5/35", sum.opMeanNs, sum.selfMeanNs, sum.sessMeanNs)
	}
}

func TestTracerDropsAtCapacityWithoutGrowing(t *testing.T) {
	tr := newTracer(2)
	for i := 0; i < 5; i++ {
		tr.add(span{Start: int64(i)})
	}
	if len(tr.spans()) != 2 || tr.dropped.Load() != 3 || cap(tr.buf) != 2 {
		t.Errorf("kept %d dropped %d cap %d, want 2, 3, 2", len(tr.spans()), tr.dropped.Load(), cap(tr.buf))
	}
}

// packetSession is a Session that also reports datagram costs, like
// udpnet's; fakeLink dials it.
type packetSession struct {
	xport.Session
	packets, retransmits int64
}

func (s *packetSession) Inc(pid int) (int64, error) {
	s.packets += 7
	s.retransmits += 2
	return s.Session.Inc(pid)
}
func (s *packetSession) Packets() int64     { return s.packets }
func (s *packetSession) Retransmits() int64 { return s.retransmits }
func (s *packetSession) Outstanding() int64 { return 0 }

type fakeLink struct{ *inproc.Cluster }

func (l fakeLink) Dial(client uint64) (xport.Session, error) {
	s, err := l.Cluster.Dial(client)
	if err != nil {
		return nil, err
	}
	return &packetSession{Session: s}, nil
}

// The decorator must keep a packet session a packet session, or the
// Counter's Packets/Retransmits totals silently read 0 in traced runs;
// and it must not turn a plain session into one.
func TestDecoratorForwardsPacketSession(t *testing.T) {
	topo, err := core.New(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	cl, stop, err := inproc.StartCluster(topo, shardCount)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	tr := newTracer(64)

	ctr := xport.NewCounter(traceLink{fakeLink{cl}, tr}, 1)
	for i := 0; i < 3; i++ {
		if v, err := ctr.Inc(0); err != nil || v != int64(i) {
			t.Fatalf("Inc %d through the decorator = %d, %v", i, v, err)
		}
	}
	if ctr.Packets() != 21 || ctr.Retransmits() != 6 {
		t.Errorf("counter sees packets=%d retransmits=%d through the decorator, want 21 and 6", ctr.Packets(), ctr.Retransmits())
	}
	ctr.Close()
	if ctr.Packets() != 21 {
		t.Errorf("packets after Close = %d, want 21 (folded in at retirement)", ctr.Packets())
	}

	plain, err := traceLink{cl, tr}.Dial(wire.NextClientID())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, ok := plain.(xport.PacketSession); ok {
		t.Error("decorating a stream session produced a PacketSession")
	}

	var dials, incs int
	for _, s := range tr.spans() {
		switch s.Kind {
		case kindDial:
			dials++
		case kindSessInc:
			incs++
		}
		if s.End < s.Start {
			t.Errorf("span ends before it starts: %+v", s)
		}
	}
	if dials != 2 || incs != 3 {
		t.Errorf("recorded %d dial and %d session.inc spans, want 2 and 3", dials, incs)
	}
}

func TestWriteTrace(t *testing.T) {
	tr := newTracer(8)
	start := time.Now()
	tr.add(span{Start: 0, End: 10, Kind: kindOp, Op: uint8(opDec), Parent: -1})
	tr.record(kindSessBatch, start)
	resolveParents(tr.spans())
	path, err := writeTrace(t.TempDir(), "unit", tr)
	if err != nil || path == "" {
		t.Fatalf("writeTrace: %q, %v", path, err)
	}
}
