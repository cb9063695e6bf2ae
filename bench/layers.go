package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/balancer"
	"repro/internal/counter"
	"repro/internal/ctlplane"
	"repro/internal/inproc"
	"repro/internal/network"
	"repro/internal/tcpnet"
	"repro/internal/wire"
	"repro/internal/xport"
)

// Standalone replays: each layer's public calls timed on their own,
// single-threaded, on the ops and frames the workload generated. They
// are the per-layer rows no span can give from outside the program
// (nothing below a Session call is visible to a decorator).

// replayBudget is how long one replay row measures.
const replayBudget = 150 * time.Millisecond

var sink int64 // keeps replayed results alive

// timeNs times fn, which performs `per` units of work per call, in
// chunks of about chunkLen until the budget is spent, and returns the
// median chunk's ns per unit.
func timeNs(per int, fn func()) float64 {
	fn() // lazily built scratch is not the layer's steady-state cost
	const chunkLen = 5 * time.Millisecond
	t0 := time.Now()
	fn()
	calls := int(min(max(chunkLen/max(time.Since(t0), 1), 1), 1<<16))
	var chunks []float64
	for end := time.Now().Add(replayBudget); len(chunks) < 5 || time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		chunks = append(chunks, float64(time.Since(t0).Nanoseconds())/float64(calls*per))
	}
	return median(chunks)
}

// recorder is an xport.Exchanger that serves frames from local
// balancers and cells — the shard semantics without a shard — and keeps
// every frame it was asked to exchange. Driving xport.Walk over it
// yields the exact frame sequence the workload's ops put on the wire.
type recorder struct {
	walk   *xport.Walk
	bals   []*balancer.PQ
	cells  []int64
	seq    uint64
	frames []wire.Frame
}

func newRecorder(topo *network.Network) *recorder {
	r := &recorder{walk: xport.NewWalk(topo, shardCount), cells: make([]int64, topo.OutWidth())}
	for id := 0; id < topo.Size(); id++ {
		nd := topo.Node(id)
		r.bals = append(r.bals, balancer.NewInit(nd.In(), nd.Out(), nd.Balancer().Init()))
	}
	for i := range r.cells {
		r.cells[i] = int64(i)
	}
	return r
}

func (r *recorder) Exchange(shard int, op byte, id int32, n int64) (int64, error) {
	f := wire.Frame{Op: op, ID: id, N: n}
	if op != wire.OpRead {
		r.seq++
		f.Op, f.Seq = wire.V2Op(op), r.seq
	}
	r.frames = append(r.frames, f)
	switch op {
	case wire.OpStep:
		return int64(r.bals[id].Step()), nil
	case wire.OpStepN:
		if n > 0 {
			return r.bals[id].StepN(n), nil
		}
		return r.bals[id].StepAntiN(-n), nil
	case wire.OpRead:
		return r.cells[id], nil
	}
	stride := int64(id >> 16)
	cell := &r.cells[id&0xffff]
	if op == wire.OpCell {
		*cell += stride
		return *cell - stride, nil
	}
	*cell += stride * n
	return *cell, nil
}

func (r *recorder) Inc(pid int) (int64, error) { return r.walk.Inc(r, pid) }
func (r *recorder) Batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	return r.walk.Batch(r, in, k, anti, dst)
}
func (r *recorder) Read() (int64, error) { return r.walk.Read(r) }

// walker is the part of xport.Session an op needs.
type walker interface {
	Inc(pid int) (int64, error)
	Batch(in int, k int64, anti bool, dst []int64) ([]int64, error)
	Read() (int64, error)
}

// walkOp sends one generated op down a session the way xport.Counter
// does: Inc as the single-token walk, everything else as a batch.
func walkOp(s walker, o op, inWidth int, dst []int64) ([]int64, error) {
	switch o.kind {
	case opInc:
		v, err := s.Inc(o.pid)
		return append(dst, v), err
	case opIncBatch:
		return s.Batch(o.pid%inWidth, int64(o.k), false, dst)
	case opDec:
		return s.Batch(o.pid%inWidth, 1, true, dst)
	}
	v, err := s.Read()
	return append(dst, v), err
}

// recordFrames returns the request frames one pass of the pattern puts
// on the wire.
func recordFrames(topo *network.Network, pattern []op) ([]wire.Frame, error) {
	r := newRecorder(topo)
	for _, o := range pattern {
		if _, err := walkOp(r, o, topo.InWidth(), nil); err != nil {
			return nil, err
		}
	}
	return r.frames, nil
}

// sessionUs is the mean µs one op of the pattern takes on a standalone
// session of the link, driven the way an xport flight drives it (a
// fresh seq tape per op): the link adapter and everything below it,
// with no coalescing, pool or histograms above.
func sessionUs(link xport.Link, pattern []op) (float64, error) {
	s, err := link.Dial(wire.NextClientID())
	if err != nil {
		return 0, err
	}
	defer s.Close()
	var werr error
	var seqs atomic.Uint64
	dst := make([]int64, 0, batchK)
	ns := timeNs(len(pattern), func() {
		for _, o := range pattern {
			var err error
			s.SetTape(wire.NewSeqTape(&seqs))
			if dst, err = walkOp(s, o, link.InWidth(), dst[:0]); err != nil {
				werr = err
			}
			s.SetTape(nil)
		}
	})
	return ns / 1e3, werr
}

// replayLayers fills the rows that come from standalone replays. fpp is
// the workload's measured frames per packet (1 when it sends no
// packets), so the packet codec is timed at the packing it really runs.
func replayLayers(w *workload, seed int64, fpp int, m metrics) error {
	pattern := w.pattern(seed, 0)
	if err := replayCore(w, pattern, m); err != nil {
		return err
	}
	if err := replayWire(w, pattern, fpp, m); err != nil {
		return err
	}
	return replayLinks(w, pattern, m)
}

// replayCore times balancer → network → counter on the workload's own
// topology.
func replayCore(w *workload, pattern []op, m metrics) error {
	topo, err := w.topology()
	if err != nil {
		return err
	}
	bal := balancer.New(2, 2)
	m.set("balancer.step_ns", timeNs(1, func() { sink += bal.StepN(1) }))
	wires := make([]int, len(pattern))
	for i, o := range pattern {
		wires[i] = o.pid % topo.InWidth()
	}
	traverse := timeNs(len(wires), func() {
		for _, in := range wires {
			sink += int64(topo.Traverse(in))
		}
	})
	topo.Reset()
	tally := make([]int64, topo.OutWidth())
	traverseBatch := timeNs(len(wires), func() {
		for _, in := range wires {
			topo.TraverseBatchInto(in, batchK, tally)
		}
	})
	topo.Reset()
	ctr := counter.NewNetwork(topo)
	inc := timeNs(len(wires), func() {
		for _, in := range wires {
			sink += ctr.Inc(in)
		}
	})
	dst := make([]int64, 0, batchK)
	incBatch := timeNs(len(wires), func() {
		for _, in := range wires {
			dst = ctr.IncBatch(in, batchK, dst[:0])
		}
	})
	m.set("network.traverse_ns", traverse)
	m.set("network.traverse_batch_ns_per_token", traverseBatch/batchK)
	m.set("counter.self_ns", inc-traverse)
	m.set("counter.batch_self_ns_per_token", (incBatch-traverseBatch)/batchK)
	return nil
}

// replayWire times the frame codec, the packet codec and the dedup
// window on the frames the pattern really sends, and one histogram
// Observe.
func replayWire(w *workload, pattern []op, fpp int, m metrics) error {
	topo, err := w.topology()
	if err != nil {
		return err
	}
	frames, err := recordFrames(topo, pattern)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, wire.MaxDatagram)
	var back wire.Frame
	m.set("wire.codec_ns_per_frame", timeNs(len(frames), func() {
		for i := range frames {
			buf = wire.AppendFrame(buf[:0], &frames[i])
			if _, err := wire.DecodeFrame(buf, &back); err != nil {
				panic(err) // our own encoding: only a codec bug gets here
			}
		}
	}))
	hello := wire.Frame{Op: wire.OpHello, Client: wire.NextClientID()}
	var packets [][]wire.Frame
	for i := 0; i < len(frames); i += fpp {
		packets = append(packets, append([]wire.Frame{hello}, frames[i:min(i+fpp, len(frames))]...))
	}
	scratch := make([]wire.Frame, 0, fpp+1)
	m.set("wire.packet_ns_per_packet", timeNs(len(packets), func() {
		for i, p := range packets {
			buf = wire.AppendPacket(buf[:0], uint64(i), p)
			if _, _, err := wire.DecodePacket(buf, scratch[:0]); err != nil {
				panic(err)
			}
		}
	}))

	// A datagram shard binds the client's window per packet, a stream or
	// in-memory shard once per session; the replay does what the
	// workload's link does.
	dedup := wire.NewDedup(wire.DedupConfig{})
	session := dedup.Bind(hello.Client)
	defer dedup.Release(session)
	perPacket := w.link == linkUDP
	var seq uint64
	exec := func() (int64, bool) { return 1, true }
	m.set("wire.dedup_ns_per_frame", timeNs(len(frames), func() {
		for i := 0; i < len(frames); i += fpp {
			e := session
			if perPacket {
				e = dedup.Bind(hello.Client)
			}
			for range frames[i:min(i+fpp, len(frames))] {
				seq++
				v, _ := e.Do(seq, exec)
				sink += v
			}
			if perPacket {
				dedup.Release(e)
			}
		}
	}))

	h := ctlplane.NewLatencyHistogram()
	var v int64 = 1
	m.set("ctlplane.observe_ns", timeNs(1, func() {
		v = v*5%1_000_003 + 1 // walk the buckets; a constant would be one branch pattern
		h.Observe(v * 17)
	}))
	return nil
}

// replayLinks runs the identical op stream down a standalone session of
// each of the three links, and times one Gather of a live counter.
func replayLinks(w *workload, pattern []op, m metrics) error {
	links := []struct {
		name  string
		start func(*network.Network) (xport.Link, func(), error)
	}{
		{"inproc", func(topo *network.Network) (xport.Link, func(), error) {
			return inproc.StartCluster(topo, shardCount)
		}},
		{"udpnet", func(topo *network.Network) (xport.Link, func(), error) {
			cl, _, stop, err := startUDP(topo, w)
			return cl, stop, err
		}},
		{"tcpnet", func(topo *network.Network) (xport.Link, func(), error) {
			return startTCP(topo)
		}},
	}
	us := map[string]float64{}
	for _, l := range links {
		topo, err := w.topology()
		if err != nil {
			return err
		}
		link, stop, err := l.start(topo)
		if err != nil {
			return fmt.Errorf("%s replay: %w", l.name, err)
		}
		if l.name == "inproc" {
			live := xport.NewCounter(link, 1)
			_, err = live.Inc(0)
			m.set("ctlplane.gather_us", timeNs(1, func() { sink += int64(len(live.Gather())) })/1e3)
			live.Close()
		}
		if err == nil {
			us[l.name], err = sessionUs(link, pattern)
		}
		stop()
		if err != nil {
			return fmt.Errorf("%s session replay: %w", l.name, err)
		}
		m.set(l.name+".session_us", us[l.name])
	}
	m.set("udpnet.kernel_residual_us", us["udpnet"]-us["inproc"])
	m.set("tcpnet.kernel_residual_us", us["tcpnet"]-us["inproc"])
	return nil
}

func startTCP(topo *network.Network) (*tcpnet.Cluster, func(), error) {
	var servers []*tcpnet.Shard
	stop := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	addrs := make([]string, shardCount)
	for i := range addrs {
		s, err := tcpnet.StartShard("127.0.0.1:0", topo, i, shardCount)
		if err != nil {
			stop()
			return nil, nil, err
		}
		servers = append(servers, s)
		addrs[i] = s.Addr()
	}
	return tcpnet.NewCluster(topo, addrs), stop, nil
}
