// Package udpnet deploys a counting network across UDP servers — the
// datagram sibling of internal/tcpnet, for fabrics where a stream
// transport is too heavy or too slow to set up: balancers are
// partitioned across shard servers exactly as in tcpnet, but a balancer
// access is one request/response datagram exchange, and the transport
// delivers packets late, duplicated, reordered, or not at all.
//
// What makes an unreliable transport workable is the exactly-once
// machinery protocol v2 already built for tcpnet's retry path: every
// mutating frame carries a client id (HELLO) and a monotone sequence
// number, and each shard keeps bounded per-client dedup windows
// (wire.Dedup) replaying recorded replies for already-applied
// sequences. Over TCP that machinery absorbs a rare connection death;
// over UDP it IS the reliability layer — the client retransmits an
// unacknowledged request packet under a jittered exponential timer
// (wire.Backoff), and however many copies arrive, in whatever order,
// each frame executes exactly once and every copy of the reply is
// identical.
//
// # Packets
//
// A request datagram is an 8-byte request id followed by canonically
// encoded frames (wire.AppendPacket): a HELLO binding the packet to the
// client's dedup windows, then seq-numbered v2 mutating frames and/or
// READ frames, at most wire.MaxDatagram bytes in all. The response
// echoes the request id followed by one 8-byte value per non-HELLO
// frame, in request order — the id is how a client matches replies to
// (possibly retransmitted, possibly reordered) requests, and the dedup
// replay is why a response regenerated for a duplicate request is
// bit-identical to the original.
//
// Because a datagram carries several frames, a batched pipeline costs
// fewer PACKETS than tcpnet costs round trips: the session walks the
// topology layer by layer (balancers within a layer never feed each
// other), packs each layer's STEPN frames per owning shard into one
// datagram, and packs the whole exit-cell phase the same way. The
// per-FRAME bill — rpcs, the unit E25-E27 price tcpnet in — is
// identical by construction: one STEPN per balancer touched, one CELLN
// per exit wire touched.
//
// Unlike tcpnet there is no v1 session: stateless mutating frames
// cannot be retransmitted safely, so a shard drops any packet carrying
// a v1 mutating op (READ, which is idempotent, is the one stateless op
// served). A malformed or violating packet is dropped whole, without a
// reply — the datagram analogue of tcpnet dropping the connection.
package udpnet

import (
	"encoding/binary"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ctlplane"
	"repro/internal/network"
	"repro/internal/wire"
	"repro/internal/xport"
)

// ShardConfig tunes a shard server; the zero value is the production
// default (wire's DedupWindow/DedupClients bounds, one worker, bursts
// of DefaultShardBatch packets per syscall).
type ShardConfig struct {
	// Dedup sizes the per-client exactly-once windows; zero fields take
	// the wire defaults. The window is the retransmit horizon: a late
	// duplicate is answered from the record until Window newer sequence
	// numbers of its residue class have been applied, and dropped — never
	// applied again — after that (see wire.DedupEntry.Do).
	Dedup wire.DedupConfig

	// Workers is the packet-processing pool width; <= 0 means 1 (the
	// serial behaviour every earlier E-series number was taken at).
	// Parallelism is safe because the state a packet touches is either
	// atomic (balancer words, counter cells) or serialized per client
	// by the dedup window's own lock — frames from one client never
	// race each other, and frames from different clients never needed
	// an order in the first place (that is the paper's whole point).
	Workers int

	// Batch bounds how many datagrams one receive or send syscall moves
	// (recvmmsg/sendmmsg on linux; the portable fallback reads one per
	// call but still coalesces sends per wakeup). <= 0 means
	// DefaultShardBatch.
	Batch int
}

// DefaultShardBatch is the default per-syscall datagram burst bound.
const DefaultShardBatch = 16

// shardBufSize is the pooled packet-buffer size: a protocol-abiding
// request is at most wire.MaxDatagram bytes and the widest possible
// response (a full datagram of READ frames) stays under 2 KiB, so one
// pool serves both directions. Anything larger is truncated by the
// receive path and dropped as malformed.
const shardBufSize = 2048

// bufPool is the shard's packet-buffer free list, a LIFO it owns: get
// pops, allocating only when the list is empty, and put pushes and never
// drops, so the hot path allocates nothing whatever the GC does. A buffer
// is allocated only while all are out, so the list never holds more than
// the pipeline has in flight (bufBound): Batch reader slots, Workers·Batch
// in workq, a request and a spare per worker, Workers·Batch in sendq and
// the sender's burst of Batch. A sync.Pool suits per-call scratch got
// and put on one goroutine (network's batchPool, counter's tallyPool); a
// packet buffer crosses goroutines, which churns its per-P chains, and it
// empties across two GCs.
type bufPool struct {
	mu   sync.Mutex
	free []*[shardBufSize]byte
}

func bufBound(workers, batch int) int { return 2*batch + 2*workers*batch + 2*workers }

func (bp *bufPool) get() *[shardBufSize]byte {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := len(bp.free)
	if n == 0 {
		return new([shardBufSize]byte)
	}
	b := bp.free[n-1]
	bp.free = bp.free[:n-1]
	return b
}

func (bp *bufPool) put(b *[shardBufSize]byte) {
	bp.mu.Lock()
	bp.free = append(bp.free, b)
	bp.mu.Unlock()
}

// putAll returns a sent burst's buffers under one lock.
func (bp *bufPool) putAll(burst []pkt) {
	bp.mu.Lock()
	for i := range burst {
		bp.free = append(bp.free, burst[i].buf)
	}
	bp.mu.Unlock()
}

// pkt is one datagram moving through the shard pipeline: a pooled
// buffer, the byte count (negative marks a truncated receive, dropped
// by the dispatcher), and the peer address as an allocation-free
// netip.AddrPort value.
type pkt struct {
	buf *[shardBufSize]byte
	n   int
	ap  netip.AddrPort
}

// shardIO is the syscall boundary the shard reads and writes bursts
// through. The linux implementation (mmsg_linux.go) moves whole bursts
// per recvmmsg/sendmmsg call; the portable fallback (mmsg_other.go)
// reads one datagram per call and writes each send of a burst
// individually. Both report how many packets each call moved so the
// batched-syscall metrics stay comparable across builds.
type shardIO interface {
	// readBatch fills up to len(dst) packets with pooled buffers and
	// returns how many arrived; it blocks until at least one does.
	readBatch(dst []pkt, pool *bufPool) (int, error)
	// writeBatch sends every packet in the burst; buffer ownership
	// stays with the caller.
	writeBatch(ps []pkt) error
}

// loopIO is the portable shardIO: one datagram per receive call, one
// send syscall per reply. It is the whole story on non-linux builds
// (and under -tags countnet_nommsg) and the last-resort fallback on
// linux when the raw descriptor is unavailable.
type loopIO struct {
	conn *net.UDPConn
}

func (io *loopIO) readBatch(dst []pkt, pool *bufPool) (int, error) {
	buf := pool.get()
	n, ap, err := io.conn.ReadFromUDPAddrPort(buf[:])
	if err != nil {
		pool.put(buf)
		return 0, err
	}
	dst[0] = pkt{buf: buf, n: n, ap: ap}
	return 1, nil
}

func (io *loopIO) writeBatch(ps []pkt) error {
	var firstErr error
	for i := range ps {
		if _, err := io.conn.WriteToUDPAddrPort(ps[i].buf[:ps[i].n], ps[i].ap); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Shard is one balancer server: the UDP link — socket, packing, worker
// pool — over the shared serving core (xport.ShardCore), which owns the
// balancers, counter cells and per-client dedup windows assigned to it
// and executes every frame. Packets flow through a three-stage pipeline
// — a reader draining the socket in bursts into pooled buffers, a worker
// pool decoding/validating/executing, and a sender writing reply bursts
// — so cross-client packets process in parallel while frames within one
// packet still apply in order (one worker owns the whole packet).
type Shard struct {
	conn    *net.UDPConn
	core    *xport.ShardCore
	done    chan struct{}
	once    sync.Once // Close idempotency
	wg      sync.WaitGroup
	workers int
	batch   int
	pool    *bufPool
	io      shardIO
	workq   chan pkt
	sendq   chan pkt

	// Control-plane state: the shard's slot in the partition (for
	// /status), its registry of read-side metric views (for /metrics),
	// and bare atomics the pipeline stages bump. inflight counts
	// packets accepted by the reader and not yet replied or dropped —
	// zero is the shard's quiescence signal now that processing is
	// concurrent; busy is the worker-pool occupancy gauge.
	index        int
	shards       int
	netName      string
	reg          *ctlplane.Registry
	packets      atomic.Int64
	drops        atomic.Int64
	inflight     atomic.Int64
	busy         atomic.Int64
	recvBatches  atomic.Int64
	recvBatchPks atomic.Int64
	sendBatches  atomic.Int64
	sendBatchPks atomic.Int64
}

// StartShard launches a shard on addr (use "127.0.0.1:0" for tests)
// with the default configuration. The shard owns every network node
// with id ≡ index (mod shards) and every output-wire cell with
// wire ≡ index (mod shards); cells are initialized to their wire index
// per §1.1 — the same partitioning as tcpnet.StartShard.
func StartShard(addr string, topo *network.Network, index, shards int) (*Shard, error) {
	return StartShardConfig(addr, topo, index, shards, ShardConfig{})
}

// StartShardConfig is StartShard with per-deployment tuning — most
// importantly the dedup-window sizing, which bounds how late a
// retransmitted duplicate can arrive and still be replayed rather than
// re-executed.
func StartShardConfig(addr string, topo *network.Network, index, shards int, cfg ShardConfig) (*Shard, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	batch := cfg.Batch
	if batch < 1 {
		batch = DefaultShardBatch
	}
	s := &Shard{
		conn:    conn,
		core:    xport.NewShardCore(topo, index, shards, cfg.Dedup),
		done:    make(chan struct{}),
		workers: workers,
		batch:   batch,
		pool:    &bufPool{free: make([]*[shardBufSize]byte, 0, bufBound(workers, batch))},
		workq:   make(chan pkt, workers*batch),
		sendq:   make(chan pkt, workers*batch),
		index:   index,
		shards:  shards,
		netName: topo.Name(),
		reg:     ctlplane.NewRegistry(),
	}
	s.io = newShardIO(conn, batch)
	labels := []ctlplane.Label{{Key: "transport", Value: "udp"}, {Key: "shard", Value: strconv.Itoa(index)}}
	s.core.RegisterMetrics(s.reg, labels...)
	s.reg.Counter(wire.MetricShardPackets, wire.HelpShardPackets, s.packets.Load, labels...)
	s.reg.Counter(wire.MetricShardDrops, wire.HelpShardDrops, s.drops.Load, labels...)
	s.reg.Gauge(wire.MetricShardWorkers, wire.HelpShardWorkers, func() int64 { return int64(s.workers) }, labels...)
	s.reg.Gauge(wire.MetricShardWorkersBusy, wire.HelpShardWorkersBusy, s.busy.Load, labels...)
	s.reg.Counter(wire.MetricShardRecvBatches, wire.HelpShardRecvBatches, s.recvBatches.Load, labels...)
	s.reg.Counter(wire.MetricShardRecvBatchPackets, wire.HelpShardRecvBatchPackets, s.recvBatchPks.Load, labels...)
	s.reg.Counter(wire.MetricShardSendBatches, wire.HelpShardSendBatches, s.sendBatches.Load, labels...)
	s.reg.Counter(wire.MetricShardSendBatchPackets, wire.HelpShardSendBatchPackets, s.sendBatchPks.Load, labels...)
	var workerWG sync.WaitGroup
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		workerWG.Add(1)
		go func() {
			defer s.wg.Done()
			defer workerWG.Done()
			s.work()
		}()
	}
	// The sender outlives the workers: sendq closes only after the last
	// worker exits, so a reply queued during drain is never lost to a
	// send on a closed channel.
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		workerWG.Wait()
		close(s.sendq)
	}()
	go func() {
		defer s.wg.Done()
		s.send()
	}()
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the shard's listening address.
func (s *Shard) Addr() string { return s.conn.LocalAddr().String() }

// Close stops the shard; a request in flight when the socket closes is
// simply never answered, which to its client is one more lost packet.
// Idempotent, so a signal-driven drain hook can race a manual shutdown.
func (s *Shard) Close() {
	s.once.Do(func() {
		close(s.done)
		s.conn.Close()
	})
	s.wg.Wait()
}

// ShardStatus is a shard server's /status document.
type ShardStatus struct {
	Transport string `json:"transport"`
	Addr      string `json:"addr"`
	Shard     int    `json:"shard"`  // this server's index in the partition
	Shards    int    `json:"shards"` // servers the topology is partitioned across
	Network   string `json:"network"`
	Balancers int    `json:"balancers"` // balancer nodes this server owns
	Cells     int    `json:"cells"`     // exit cells this server owns
}

// Health implements ctlplane.Source: the shard is live until Close.
// Quiescence is "no packet anywhere in the pipeline" — accepted by the
// reader but not yet replied or dropped; a UDP shard holds no client
// connections to wait out.
func (s *Shard) Health() ctlplane.Health {
	select {
	case <-s.done:
		return ctlplane.Health{Detail: "closed"}
	default:
	}
	if s.inflight.Load() > 0 {
		return ctlplane.Health{Live: true, Detail: "processing packets"}
	}
	return ctlplane.Health{Live: true, Quiescent: true, Detail: "idle between packets"}
}

// Status implements ctlplane.Source with the shard's topology slot.
func (s *Shard) Status() any {
	return ShardStatus{
		Transport: "udp",
		Addr:      s.Addr(),
		Shard:     s.index,
		Shards:    s.shards,
		Network:   s.netName,
		Balancers: s.core.Balancers(),
		Cells:     s.core.Cells(),
	}
}

// Gather implements ctlplane.Source, evaluating the shard's registered
// metric views (packets, frames, drops, dedup table state).
func (s *Shard) Gather() []ctlplane.Sample { return s.reg.Gather() }

// serve is the shard's reader: drain the socket in bursts of up to
// Batch datagrams per syscall into pooled buffers and hand each packet
// to the worker pool. A full work queue applies backpressure here — the
// kernel socket buffer absorbs the burst and drops beyond it, which to
// a client is ordinary datagram loss, absorbed by its retransmit timer.
// Closing the work queue after the socket dies is what drains the
// worker pool down.
func (s *Shard) serve() {
	defer s.wg.Done()
	defer close(s.workq)
	batch := make([]pkt, s.batch)
	for {
		n, err := s.io.readBatch(batch, s.pool)
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue // transient (e.g. a surfaced ICMP error)
			}
		}
		s.recvBatches.Add(1)
		s.recvBatchPks.Add(int64(n))
		for i := 0; i < n; i++ {
			p := batch[i]
			batch[i] = pkt{}
			if p.n < 0 || p.n > wire.MaxDatagram {
				// Truncated or over the MaxDatagram request budget:
				// a protocol violation either way, dropped whole like
				// any other malformed packet. Enforcing the budget
				// here also caps the widest possible response (a full
				// datagram of READ frames) under shardBufSize, so a
				// reply can never outgrow its pooled buffer.
				s.packets.Add(1)
				s.drops.Add(1)
				s.pool.put(p.buf)
				continue
			}
			s.inflight.Add(1)
			s.workq <- p
		}
	}
}

// work is one pool worker: decode a packet whole, validate it whole,
// execute it (deduplicated), and queue the encoded response for the
// batched sender. Each worker owns its decode and encode scratch, and
// each packet rides its own pooled buffer end to end — nothing a worker
// touches is shared with another packet in flight, which is what makes
// Workers > 1 safe (and what TestUDPShardWorkersBufferIsolation pins).
// A reply is encoded into the worker's spare buffer, and the request's
// buffer becomes the next spare, so a worker never takes the pool lock.
func (s *Shard) work() {
	var frames []wire.Frame
	spare := s.pool.get()
	for p := range s.workq {
		s.busy.Add(1)
		s.packets.Add(1)
		reqid, fs, err := wire.DecodePacket(p.buf[:p.n], frames[:0])
		frames = fs
		if err != nil {
			s.dropPkt(p)
			continue
		}
		resp := s.process(spare[:0], reqid, fs)
		if resp == nil {
			s.dropPkt(p)
			continue
		}
		s.sendq <- pkt{buf: spare, n: len(resp), ap: p.ap}
		spare = p.buf
		s.busy.Add(-1)
	}
}

// dropPkt accounts and recycles a packet refused without a reply.
func (s *Shard) dropPkt(p pkt) {
	s.drops.Add(1)
	s.pool.put(p.buf)
	s.inflight.Add(-1)
	s.busy.Add(-1)
}

// send is the reply writer: take one finished response, opportunistically
// drain whatever else the workers have queued (up to the batch bound),
// and write the whole burst in one syscall where the platform allows.
// Latency is never traded away — a lone reply goes out immediately; the
// burst only forms when the shard is busy enough to have one.
func (s *Shard) send() {
	burst := make([]pkt, 0, s.batch)
	for p := range s.sendq {
		burst = append(burst[:0], p)
	drain:
		for len(burst) < s.batch {
			select {
			case q, ok := <-s.sendq:
				if !ok {
					break drain
				}
				burst = append(burst, q)
			default:
				break drain
			}
		}
		s.io.writeBatch(burst)
		s.sendBatches.Add(1)
		s.sendBatchPks.Add(int64(len(burst)))
		s.pool.putAll(burst)
		s.inflight.Add(-int64(len(burst)))
		clear(burst)
	}
}

// process validates and executes one decoded packet, returning the
// encoded response or nil to drop the packet. Validation runs BEFORE
// any state changes: on a datagram transport a violation cannot "drop
// the rest of the stream", so a packet that would fail partway is
// refused whole instead of half-applying. The one datagram-only rule
// lives here, not in the core: a v1 mutating op (one V2Op would
// renumber) is stateless, so a retransmitted copy would run twice.
func (s *Shard) process(dst []byte, reqid uint64, frames []wire.Frame) []byte {
	helloed := false
	for i := range frames {
		f := &frames[i]
		switch {
		case f.Op == wire.OpHello:
			helloed = true
		case wire.V2Op(f.Op) != f.Op, !s.core.Check(f, helloed):
			return nil
		}
	}
	dst = wire.AppendPacket(dst, reqid, nil)
	dedup := s.core.Dedup()
	var cl *wire.DedupEntry // the packet's HELLO binding, held while it executes
	defer func() {
		if cl != nil {
			dedup.Release(cl)
		}
	}()
	var vb [8]byte
	for i := range frames {
		f := &frames[i]
		if f.Op == wire.OpHello {
			if cl != nil {
				dedup.Release(cl)
			}
			cl = dedup.Bind(f.Client)
			continue
		}
		val, ok := s.core.Exec(cl, f)
		if !ok {
			return nil
		}
		binary.BigEndian.PutUint64(vb[:], uint64(val))
		dst = append(dst, vb[:]...)
	}
	return dst
}
