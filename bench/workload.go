package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/ctlplane"
	"repro/internal/inproc"
	"repro/internal/network"
	"repro/internal/udpnet"
	"repro/internal/wire"
	"repro/internal/xport"
)

type opKind uint8

const (
	opInc opKind = iota
	opIncBatch
	opDec
	opRead
)

var opNames = [...]string{"inc", "inc-batch", "dec", "read"}

// op is one generated operation: the program under test sees only these.
type op struct {
	kind opKind
	pid  int
	k    int // batch size, opIncBatch only
}

// tokens is how many tokens or antitokens the op moves; net is its
// effect on the quiescent count.
func (o op) tokens() int64 {
	switch o.kind {
	case opIncBatch:
		return int64(o.k)
	case opRead:
		return 0
	}
	return 1
}

func (o op) net() int64 {
	if o.kind == opDec {
		return -1
	}
	return o.tokens()
}

// batchK is the batch size of every batched op in the benchmark.
const batchK = 64

// target is what a client goroutine drives. xport.Counter satisfies it
// as is; the in-memory counter gets the memTarget adapter.
type target interface {
	Inc(pid int) (int64, error)
	IncBatch(pid, k int, dst []int64) ([]int64, error)
	Dec(pid int) (int64, error)
	Read() (int64, error)
}

type memTarget struct{ c *counter.Network }

func (m memTarget) Inc(pid int) (int64, error) { return m.c.Inc(pid), nil }
func (m memTarget) IncBatch(pid, k int, dst []int64) ([]int64, error) {
	return m.c.IncBatch(pid, k, dst), nil
}
func (m memTarget) Dec(pid int) (int64, error) { return m.c.Dec(pid), nil }
func (m memTarget) Read() (int64, error)       { return m.c.Issued(), nil }

// gatherer is the read side every shard and counter of the program
// already exposes; the harness reads the program's own counters and
// histograms through it and nothing else.
type gatherer interface {
	Gather() []ctlplane.Sample
}

// fleet is one started deployment plus the client the workload drives.
type fleet struct {
	target target
	ctr    *xport.Counter // nil on mem-cwt
	shards []gatherer     // shard-side metric sources
	close  func()
}

// linkKind names the transport a workload's fleet runs over.
type linkKind int

const (
	linkMem linkKind = iota
	linkInproc
	linkUDP
)

// workload is one closed-loop load: every client goroutine waits for
// its operation's values before issuing the next, so the client count —
// not a rate — is the offered load.
type workload struct {
	name    string
	why     string
	link    linkKind
	w, t    int // topology C(w,t)
	clients int
	pool    int // xport session pool width
	// sampleEvery is the latency sampling stride: on mem-cwt two clock
	// reads per op would be a large share of a ~100ns op. It is coprime
	// to the pattern length so every position of the pattern is sampled
	// in turn.
	sampleEvery int
	warmupOps   int // per client, fixed count
	udp         udpnet.ShardConfig
	pipeline    int // udpnet.Cluster.SetPipeline; 0 leaves the facade default
	// retransmit, when set, replaces the client's 15 ms retransmit timer
	// (see udp-k64 below); the zero value leaves the facade default.
	retransmit wire.Backoff
	dense      bool
	// base is the multiset of ops in each client's repeating pattern;
	// the seed only orders it, so every seed offers the same mix.
	base func(client int) []op
}

const shardCount = 3

var workloads = []*workload{
	{
		name: "mem-cwt",
		why:  "the paper's own object in memory: balancer, network and counter do all the work, xport/wire/links none; single-token and batched traversals split the time about evenly",
		link: linkMem, w: 16, t: 64, clients: 2, sampleEvery: 17, warmupOps: 2_000_000,
		base: func(c int) []op {
			return []op{
				{opInc, c, 0}, {opInc, c, 0}, {opInc, c, 0}, {opInc, c, 0}, {opInc, c, 0}, {opInc, c, 0},
				{opIncBatch, c, batchK}, {opDec, c, 0},
			}
		},
	},
	{
		name: "inproc-k1",
		why:  "the protocol-only floor: xport flight bookkeeping, wire seq-tape/dedup and ctlplane observes are nearly the whole op and the kernel is absent, so added handling shows undiluted",
		link: linkInproc, w: 8, t: 24, clients: 1, pool: 1, sampleEvery: 1, warmupOps: 300_000, dense: true,
		base: func(int) []op {
			ops := make([]op, 8)
			for i := range ops {
				ops[i] = op{opInc, i, 0}
			}
			return ops
		},
	},
	{
		name: "udp-k64",
		why:  "the raw-speed datagram engine on loopback: packing, pipelining, recvmmsg/sendmmsg, the shard worker pool and the kernel dominate; xport is under 5% of an op",
		link: linkUDP, w: 8, t: 24, clients: 2, pool: 2, sampleEvery: 1, warmupOps: 1500,
		udp: udpnet.ShardConfig{Workers: 2}, pipeline: 4,
		// On this guest a goroutine is sometimes held for 50–300 ms. The
		// default 15 ms timer reads that as loss and retransmits; when
		// the held request is applied after its copy and after more than
		// a dedup window (4096 frames, 31 ms of this workload's traffic
		// under the pool's shared client id) of newer frames, it is
		// applied a second time — 1 run in 60 ended 22 tokens over
		// (README.md, "A finding"). Loss is not this workload's subject,
		// so its timer waits out the stalls.
		retransmit: wire.Backoff{Base: time.Second, Max: time.Second},
		base:       func(c int) []op { return []op{{opIncBatch, c, batchK}} },
	},
	{
		name: "udp-k1-rw",
		why:  "the same udpnet/xport/wire layers at facade defaults: smallest datagrams, the serial depth-1 engine, live coalescing (both clients on one wire), antitokens and READ frames beside writes",
		link: linkUDP, w: 8, t: 24, clients: 2, pool: 2, sampleEvery: 1, warmupOps: 3000,
		base: func(int) []op {
			return []op{
				{opInc, 0, 0}, {opInc, 0, 0}, {opInc, 0, 0}, {opInc, 0, 0}, {opInc, 0, 0}, {opInc, 0, 0},
				{opDec, 0, 0}, {opRead, 0, 0},
			}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pattern returns client c's repeating op pattern: the workload's fixed
// multiset of ops in an order drawn from the seed. The same seed gives
// the same sequence; different seeds give the same mix.
func (w *workload) pattern(seed int64, c int) []op {
	ops := w.base(c)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (w *workload) topology() (*network.Network, error) {
	return core.New(w.w, w.t)
}

// start runs the set-up a user pays before the first token: build the
// topology, start the shards, build the client. With tr non-nil the
// counter is built over the span-recording link decorator instead of
// the bare cluster — legal because xport.NewCounter takes any Link.
func (w *workload) start(tr *tracer) (*fleet, error) {
	topo, err := w.topology()
	if err != nil {
		return nil, err
	}
	switch w.link {
	case linkMem:
		return &fleet{target: memTarget{counter.NewNetwork(topo)}, close: func() {}}, nil
	case linkInproc:
		cl, stop, err := inproc.StartCluster(topo, shardCount)
		if err != nil {
			return nil, err
		}
		f := &fleet{close: stop}
		for i := 0; i < shardCount; i++ {
			f.shards = append(f.shards, cl.Shard(i))
		}
		return f.withCounter(w.counter(cl, cl.NewCounterPool, tr)), nil
	case linkUDP:
		cl, shards, stop, err := startUDP(topo, w)
		if err != nil {
			return nil, err
		}
		f := &fleet{shards: shards, close: stop}
		return f.withCounter(w.counter(cl, cl.NewCounterPool, tr)), nil
	}
	return nil, fmt.Errorf("workload %s: unknown link", w.name)
}

// counter builds the workload's client: the link's own pooled counter,
// or, when tracing, the same xport core over the decorated link.
func (w *workload) counter(link xport.Link, pooled func(width int) *xport.Counter, tr *tracer) *xport.Counter {
	if tr != nil {
		return xport.NewCounter(traceLink{link, tr}, w.pool)
	}
	return pooled(w.pool)
}

func (f *fleet) withCounter(ctr *xport.Counter) *fleet {
	f.ctr, f.target = ctr, ctr
	stop := f.close
	f.close = func() {
		f.ctr.Close()
		stop()
	}
	return f
}

// startUDP launches w's loopback shards itself (rather than through
// udpnet.StartClusterConfig) because the harness needs the shard
// handles for their Gather().
func startUDP(topo *network.Network, w *workload) (*udpnet.Cluster, []gatherer, func(), error) {
	var servers []*udpnet.Shard
	stop := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	addrs := make([]string, shardCount)
	shards := make([]gatherer, shardCount)
	for i := range addrs {
		s, err := udpnet.StartShardConfig("127.0.0.1:0", topo, i, shardCount, w.udp)
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		servers = append(servers, s)
		addrs[i], shards[i] = s.Addr(), s
	}
	cl := udpnet.NewCluster(topo, addrs)
	if w.pipeline > 0 {
		cl.SetPipeline(w.pipeline)
	}
	if w.retransmit.Base > 0 {
		cl.SetRetransmitPolicy(wire.RetryPolicy{Attempts: udpnet.DefaultRetransmitAttempts, Budget: udpnet.DefaultRetransmitBudget}, w.retransmit)
	}
	return cl, shards, stop, nil
}
