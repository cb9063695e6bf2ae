// Package tcpnet deploys a counting network across TCP servers — the
// closest reproduction of the real-system experiments of refs [19,20] of
// the paper (10 Sun UltraSparc-10 workstations): balancers are partitioned
// across shard servers, a balancer access is one request/response round
// trip to the shard that owns it (the remote analogue of §1.2's shared
// memory word), and counter cells live on the shard owning the exit wire.
//
// A client session shepherds a single token by walking the wiring locally
// and performing one STEP RPC per balancer crossing, then one CELL RPC at
// the exit — exactly depth(B)+1 round trips per Fetch&Increment.
//
// # Batched wire frames
//
// A session can also shepherd k tokens (or antitokens) as ONE pipeline:
// a STEPN frame carries a signed count, the owning shard applies the
// whole group to the balancer with one StepN/StepAntiN transition and
// replies with the group's first sequence index, and the client folds the
// round-robin split arithmetic locally (it knows the topology and the
// balancer initial states). Groups that diverge re-merge at shared
// successors, so a batch costs one STEPN per balancer TOUCHED plus one
// CELLN per exit wire touched — at most size+t round trips for any k,
// against k·(depth+1) for singles. Negative counts carry antitokens, so
// the same frames serve Fetch&Decrement traffic (ref [2]).
//
// # Exactly-once frames (protocol v2)
//
// The retry path of the pooled Counter re-sends a whole window on a
// fresh session after a connection death, and an at-least-once re-send
// must not re-execute frames the dead session had already applied (that
// would leak counter values). Protocol v2 makes every mutating frame
// idempotent: a Counter-owned session announces the Counter's client id
// with a fire-and-forget HELLO frame (no reply, so it costs no round
// trip), every mutating frame carries a monotone per-client sequence
// number, and each shard keeps a bounded per-client dedup window
// mapping applied sequences to their recorded replies, pinned against
// eviction while any bound connection lives. An already-applied
// sequence is answered from the record instead of being re-executed, so
// a retried window lands exactly once no matter where the previous
// attempt died. Standalone sessions perform no retries and speak the
// stateless v1 ops, which also remain decodable for old clients — the
// op byte distinguishes the versions.
//
// The wire protocol is binary frames (encoding/binary, big endian):
//
//	request:  op(1) id(4)            op 1 = STEP node, op 2 = CELL wire,
//	                                 op 5 = READ wire
//	          op(1) id(4) count(8)   op 3 = STEPN node, op 4 = CELLN wire
//	                                 count int64: > 0 tokens, < 0 antitokens
//	          op(1) id(4) client(8)  op 6 = HELLO: bind the connection to
//	                                 a client id (no response)
//	          op(1) id(4) seq(8)     op 7 = STEP, op 8 = CELL, dedup'd
//	          op(1) id(4) seq(8) count(8)
//	                                 op 9 = STEPN, op 10 = CELLN, dedup'd
//	response: val(8)                 STEP: exit port; CELL: counter value;
//	                                 STEPN: first sequence index of the
//	                                 group; CELLN: cell value after the
//	                                 batched add; READ: cell value,
//	                                 unmodified (exact-count read side)
//
// A zero count, an unowned id, an unknown op, or a v2 mutating frame on
// a connection that has not sent HELLO is a protocol violation: the
// shard drops the connection. READ is non-mutating and needs no
// sequence number.
package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/network"
	"repro/internal/wire"
	"repro/internal/xport"
)

// Default dedup bounds (see wire.DedupConfig): a shard remembers the
// (seq, reply) pairs of at most DedupWindow applied mutating frames per
// client, and tracks at most DedupClients clients
// (least-recently-registered unpinned client evicted first). The window
// is the exactly-once horizon — a retry is deduplicated as long as
// fewer than DedupWindow newer frames from the same client reached the
// shard in between, which a prompt bounded-budget retry stays far
// inside of. StartShardConfig resizes both per deployment.
const (
	DedupWindow  = wire.DefaultDedupWindow
	DedupClients = wire.DefaultDedupClients
)

// ShardConfig tunes a shard server; the zero value is the production
// default (DedupWindow/DedupClients bounds).
type ShardConfig struct {
	// Dedup sizes the per-client exactly-once windows; zero fields take
	// the package defaults.
	Dedup wire.DedupConfig
}

// Shard is one balancer server: the TCP link — listener, connections,
// framing — over the shared serving core (xport.ShardCore), which owns
// the balancers, counter cells and per-client dedup windows assigned to
// it and executes every frame.
type Shard struct {
	ln    net.Listener
	core  *xport.ShardCore
	wg    sync.WaitGroup
	done  chan struct{}
	mu    sync.Mutex
	conns map[net.Conn]struct{} // live client connections, dropped on Close

	// Control-plane state: the shard's slot in the partition (for
	// /status), its registry of read-side metric views (for /metrics),
	// and the accepted-connections total.
	index      int
	shards     int
	netName    string
	reg        *ctlplane.Registry
	connsTotal atomic.Int64
}

// StartShard launches a shard on addr (use "127.0.0.1:0" for tests) with
// the default configuration. The shard owns every network node with
// id ≡ index (mod shards) and every output-wire cell with
// wire ≡ index (mod shards); cells are initialized to their wire index
// per §1.1.
func StartShard(addr string, topo *network.Network, index, shards int) (*Shard, error) {
	return StartShardConfig(addr, topo, index, shards, ShardConfig{})
}

// StartShardConfig is StartShard with per-deployment tuning — most
// importantly the dedup-window sizing, whose defaults suit pooled
// counters with prompt bounded retries but can be grown for fleets with
// many distinct long-lived clients.
func StartShardConfig(addr string, topo *network.Network, index, shards int, cfg ShardConfig) (*Shard, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Shard{
		ln:      ln,
		core:    xport.NewShardCore(topo, index, shards, cfg.Dedup),
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		index:   index,
		shards:  shards,
		netName: topo.Name(),
		reg:     ctlplane.NewRegistry(),
	}
	labels := []ctlplane.Label{{Key: "transport", Value: "tcp"}, {Key: "shard", Value: strconv.Itoa(index)}}
	s.core.RegisterMetrics(s.reg, labels...)
	s.reg.Gauge(wire.MetricShardConnsOpen, wire.HelpShardConnsOpen, func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.conns))
	}, labels...)
	s.reg.Counter(wire.MetricShardConns, wire.HelpShardConns, s.connsTotal.Load, labels...)
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the shard's listening address.
func (s *Shard) Addr() string { return s.ln.Addr().String() }

// Close stops the shard; in-flight connections are dropped (their serve
// loops unblock on the connection close). Idempotent, so a signal-driven
// drain hook can race a manual shutdown safely.
func (s *Shard) Close() {
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		return
	default:
	}
	close(s.done)
	s.mu.Unlock()
	s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
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
	Conns     int    `json:"conns"`     // client connections currently open
}

// Health implements ctlplane.Source: the shard is live until Close and
// quiescent while no client connection is bound (an idle shard's state
// is safe to snapshot or migrate).
func (s *Shard) Health() ctlplane.Health {
	select {
	case <-s.done:
		return ctlplane.Health{Detail: "closed"}
	default:
	}
	s.mu.Lock()
	open := len(s.conns)
	s.mu.Unlock()
	return ctlplane.Health{
		Live:      true,
		Quiescent: open == 0,
		Detail:    fmt.Sprintf("%d open connections", open),
	}
}

// Status implements ctlplane.Source with the shard's topology slot.
func (s *Shard) Status() any {
	s.mu.Lock()
	open := len(s.conns)
	s.mu.Unlock()
	return ShardStatus{
		Transport: "tcp",
		Addr:      s.Addr(),
		Shard:     s.index,
		Shards:    s.shards,
		Network:   s.netName,
		Balancers: s.core.Balancers(),
		Cells:     s.core.Cells(),
		Conns:     open,
	}
}

// Gather implements ctlplane.Source, evaluating the shard's registered
// metric views (frames served, connection counts, dedup table state).
func (s *Shard) Gather() []ctlplane.Sample { return s.reg.Gather() }

// track registers a client connection for Close to drop; it refuses (and
// closes) connections that race with shutdown.
func (s *Shard) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		conn.Close()
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	s.connsTotal.Add(1)
	return true
}

func (s *Shard) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Shard) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		if !s.track(conn) {
			return
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve handles one client connection until EOF or protocol violation:
// it owns the connection's HELLO binding — entries are pinned against
// LRU eviction while any bound connection lives, so registration churn
// from other clients can never push out the window a live Counter's
// retry depends on — and hands every other frame to the core.
func (s *Shard) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	defer s.untrack(conn)
	dedup := s.core.Dedup()
	var buf [wire.MaxFrameLen]byte
	var resp [8]byte
	var f wire.Frame
	var cl *wire.DedupEntry // bound by HELLO; required for v2 mutating frames
	defer func() {
		if cl != nil {
			dedup.Release(cl)
		}
	}()
	for {
		if err := wire.ReadFrame(conn, &buf, &f); err != nil {
			return
		}
		if f.Op == wire.OpHello {
			// Bind the connection to its client's dedup window;
			// fire-and-forget (no reply), so registration costs no
			// round trip.
			if cl != nil {
				dedup.Release(cl)
			}
			cl = dedup.Bind(f.Client)
			continue
		}
		if !s.core.Check(&f, cl != nil) {
			return // protocol violation: drop the connection
		}
		val, ok := s.core.Exec(cl, &f)
		if !ok {
			return // sequence past the dedup horizon: refused, not re-executed
		}
		binary.BigEndian.PutUint64(resp[:], uint64(val))
		if _, err := conn.Write(resp[:]); err != nil {
			return
		}
	}
}

// Cluster is a client-side view of a sharded deployment: the topology plus
// shard addresses. Sessions (one per goroutine) hold a connection to each
// shard.
type Cluster struct {
	net      *network.Network
	addrs    []string
	stride   int64
	dialWrap func(net.Conn) net.Conn
}

// NewCluster wires a topology to its shard addresses (shard i owns nodes
// and cells ≡ i mod len(addrs)).
func NewCluster(n *network.Network, addrs []string) *Cluster {
	return &Cluster{net: n, addrs: addrs, stride: int64(n.OutWidth())}
}

// StartCluster launches one loopback deployment of topo partitioned
// across `shards` TCP servers and returns the client cluster plus a stop
// function closing every server — the test/benchmark harness, the same
// shape as udpnet's and inproc's; production deployments build Clusters
// over real addresses with NewCluster.
func StartCluster(topo *network.Network, shards int) (*Cluster, func(), error) {
	return StartClusterConfig(topo, shards, ShardConfig{})
}

// StartClusterConfig is StartCluster with per-deployment shard tuning
// (dedup-window sizing).
func StartClusterConfig(topo *network.Network, shards int, cfg ShardConfig) (*Cluster, func(), error) {
	var servers []*Shard
	stop := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		s, err := StartShardConfig("127.0.0.1:0", topo, i, shards, cfg)
		if err != nil {
			stop()
			return nil, nil, err
		}
		servers = append(servers, s)
		addrs[i] = s.Addr()
	}
	return NewCluster(topo, addrs), stop, nil
}

// SetDialWrapper installs a hook wrapping every connection a new session
// dials — the fault-injection point the session-kill chaos tests and
// countbench's E27 kill column use to cut connections at exact frame
// boundaries. Pass nil to clear. Not safe to change while sessions are
// being created.
func (c *Cluster) SetDialWrapper(w func(net.Conn) net.Conn) { c.dialWrap = w }

// Session is a single-goroutine client: one persistent connection per
// shard. Counter-owned sessions speak protocol v2 — every connection is
// bound by HELLO to the Counter's client id and every mutating frame is
// seq-numbered for the shards to dedup. Standalone sessions (see
// NewSession) have no retry path, so they speak the stateless v1 ops
// and burn no dedup state server-side.
//
// The protocol logic (single-token path, batched topological pipeline,
// exact-count read) lives in the shared xport.Walk; this type supplies
// only the TCP link underneath it — framing one request/response round
// trip per Exchange.
type Session struct {
	c      *Cluster
	client uint64
	v2     bool // seq-number mutating frames (Counter-owned sessions)
	conns  []net.Conn
	rpcs   atomic.Int64  // round trips performed (E25's cost metric)
	seqs   atomic.Uint64 // mutating-frame sequences outside a flight
	tape   *wire.SeqTape // set by a Counter flight for replayable sequences
	walk   *xport.Walk   // shared client-side protocol walker

	buf []byte // frame scratch, reused across calls
}

// NewSession dials every shard. The session speaks the v1 stateless
// protocol: it performs no retries of its own, so sequence-numbered
// frames would buy nothing and cost the shards dedup bookkeeping.
func (c *Cluster) NewSession() (*Session, error) {
	return c.newSession(0, false)
}

// newSession dials every shard; with v2 set it announces the given
// client id with a HELLO on each connection. Pool sessions of one
// Counter share the Counter's id, which is what lets a retry on a fresh
// session hit the original attempt's dedup records.
func (c *Cluster) newSession(client uint64, v2 bool) (*Session, error) {
	s := &Session{
		c:      c,
		client: client,
		v2:     v2,
		conns:  make([]net.Conn, len(c.addrs)),
		walk:   xport.NewWalk(c.net, len(c.addrs)),
	}
	var hello []byte
	if v2 {
		hello = wire.AppendFrame(nil, &wire.Frame{Op: wire.OpHello, Client: client})
	}
	for i, addr := range c.addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("tcpnet: dial shard %d: %w", i, err)
		}
		if c.dialWrap != nil {
			conn = c.dialWrap(conn)
		}
		s.conns[i] = conn
		if hello == nil {
			continue
		}
		if _, err := conn.Write(hello); err != nil {
			s.Close()
			return nil, fmt.Errorf("tcpnet: hello shard %d: %w", i, err)
		}
	}
	return s, nil
}

// Close drops the session's connections.
func (s *Session) Close() {
	for _, conn := range s.conns {
		if conn != nil {
			conn.Close()
		}
	}
}

// RPCs returns the number of round trips this session has performed.
func (s *Session) RPCs() int64 { return s.rpcs.Load() }

// nextSeq draws the next mutating-frame sequence number: from the
// owning Counter's tape during a flight (replayable on retry), from the
// session's own counter otherwise.
func (s *Session) nextSeq() uint64 {
	if s.tape != nil {
		return s.tape.Take()
	}
	return s.seqs.Add(1)
}

// mut builds one mutating frame from its v1 op: seq-numbered v2 on
// Counter-owned sessions, plain v1 on standalone ones.
func (s *Session) mut(op byte, id int32, n int64) wire.Frame {
	if !s.v2 {
		return wire.Frame{Op: op, ID: id, N: n}
	}
	return wire.Frame{Op: wire.V2Op(op), ID: id, Seq: s.nextSeq(), N: n}
}

// send performs one request/response round trip on the given shard.
func (s *Session) send(shard int, f *wire.Frame) (int64, error) {
	s.buf = wire.AppendFrame(s.buf[:0], f)
	conn := s.conns[shard]
	if _, err := conn.Write(s.buf); err != nil {
		return 0, err
	}
	var resp [8]byte
	if _, err := io.ReadFull(conn, resp[:]); err != nil {
		return 0, err
	}
	s.rpcs.Add(1)
	return int64(binary.BigEndian.Uint64(resp[:])), nil
}

// Healthy probes the session's connections with a nonblocking peek (see
// connDead): a live, in-sync connection has nothing pending, while a
// long-dead one shows EOF or a reset and a desynced one has stray reply
// bytes — all without a round trip, so checkout health checks cost no
// RPCs. Implements xport.Session for the pool's checkout probe.
func (s *Session) Healthy() bool {
	for _, conn := range s.conns {
		if connDead(conn) {
			return false
		}
	}
	return true
}

// SetTape points the session's mutating-frame sequence source at a
// flight's rewindable tape (nil restores the session's own counter) —
// the xport pool calls it around every flight attempt so retries
// re-send identical (client, seq) pairs.
func (s *Session) SetTape(tape *wire.SeqTape) { s.tape = tape }

// Exchange implements xport.Exchanger: one framed request/response
// round trip to the given shard. Mutating ops are built through mut
// (seq-numbered v2 on Counter-owned sessions); READ is non-mutating and
// carries no sequence number.
func (s *Session) Exchange(shard int, op byte, id int32, n int64) (int64, error) {
	if op == wire.OpRead {
		return s.send(shard, &wire.Frame{Op: wire.OpRead, ID: id})
	}
	f := s.mut(op, id, n)
	return s.send(shard, &f)
}

// Inc shepherds one token through the distributed network and returns its
// counter value: depth RPCs for the balancer crossings plus one for the
// exit cell. A retried Inc walks the identical path — the dedup windows
// replay the original ports for already-applied sequences.
func (s *Session) Inc(pid int) (int64, error) {
	return s.walk.Inc(s, pid)
}

// ReadCell returns exit cell w's current value without modifying it
// (op READ) — the building block of cluster-wide exact-count reads.
// Non-mutating, so it carries no sequence number.
func (s *Session) ReadCell(w int) (int64, error) {
	return s.walk.ReadCell(s, w)
}

// Read sums the exit cells into the cluster's net count (increments minus
// decrements), one READ round trip per wire. Only meaningful while the
// cluster is quiescent, like counter.Network.Issued.
func (s *Session) Read() (int64, error) {
	return s.walk.Read(s)
}

// Dec shepherds one antitoken through the network (one-element DecBatch).
func (s *Session) Dec(pid int) (int64, error) {
	vals, err := s.DecBatch(pid, 1, nil)
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// IncBatch performs k Fetch&Increment operations as one batched pipeline
// entering on wire pid mod w, appending the k claimed values to dst: one
// STEPN round trip per balancer touched, one CELLN per exit wire touched.
// k <= 0 performs no round trips.
func (s *Session) IncBatch(pid, k int, dst []int64) ([]int64, error) {
	if k <= 0 {
		return dst, nil
	}
	return s.batch(pid%s.c.net.InWidth(), int64(k), false, dst)
}

// DecBatch is IncBatch for Fetch&Decrement: the batched frames carry a
// negative count and the k revoked values come back, newest-issued first
// per exit cell.
func (s *Session) DecBatch(pid, k int, dst []int64) ([]int64, error) {
	if k <= 0 {
		return dst, nil
	}
	return s.batch(pid%s.c.net.InWidth(), int64(k), true, dst)
}

// Batch walks the topology in topological order exactly like
// network.TraverseBatch (via the shared xport.Walk), but every balancer
// transition is one STEPN round trip to the owning shard; the split
// arithmetic runs client-side from the replied first index and the
// known initial states. The walk is deterministic in (in, k, anti), so
// a retried window re-sends the identical frame sequence and the dedup
// windows make it exactly-once. Implements xport.Session; `in` is the
// input wire (already reduced mod InWidth).
func (s *Session) Batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	return s.walk.Batch(s, in, k, anti, dst)
}

// batch keeps the historical in-package spelling of Batch.
func (s *Session) batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	return s.Batch(in, k, anti, dst)
}

// Hops returns the number of round trips one single-token Inc costs.
func (c *Cluster) Hops() int { return c.net.Depth() + 1 }

// --- xport.Link adapter -------------------------------------------------
//
// Everything above this line is the TCP link: shard servers, framed
// connections, and a Session walking the shared protocol over them.
// Everything a client stacks on top — the coalescing single-flight
// Counter, the health-probed session pool, the exactly-once seq-tape
// retry loop, pid striping — lives once in internal/xport; the aliases
// below keep this package's historical API surface.

// Transport implements xport.Link: the metrics label and /status
// discriminator.
func (c *Cluster) Transport() string { return "tcp" }

// Addrs implements xport.Link with a copy of the shard addresses.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// InWidth implements xport.Link with the topology's input width.
func (c *Cluster) InWidth() int { return c.net.InWidth() }

// OutWidth implements xport.Link with the topology's output width.
func (c *Cluster) OutWidth() int { return c.net.OutWidth() }

// Topology names the deployed network, for fleet names (xport.NewFleet).
func (c *Cluster) Topology() string { return c.net.Name() }

// Dial implements xport.Link: a v2 session announcing the given client
// id on every shard connection.
func (c *Cluster) Dial(client uint64) (xport.Session, error) {
	return c.newSession(client, true)
}

// RetryBudget implements xport.Link: a TCP redial fails in
// milliseconds, so a failed flight keeps retrying for a short window.
func (c *Cluster) RetryBudget() time.Duration { return DefaultRetryBudget }

// ErrClosed is returned by Counter operations — including callers pooled
// in a coalescing window — once Close has been called. It is the shared
// xport sentinel, so errors.Is matches across transports.
var ErrClosed = xport.ErrClosed

// Default retry budget: a failed flight is retried on fresh sessions up
// to DefaultRetryAttempts total tries within DefaultRetryBudget of the
// first failure, the redials paced by DefaultRetryBackoff. Attempts and
// backoff are the shared xport defaults; the budget is the TCP-specific
// value the Cluster link advertises.
const (
	DefaultRetryAttempts = xport.DefaultRetryAttempts
	DefaultRetryBudget   = 2 * time.Second
)

// DefaultRetryBackoff paces redials between retry attempts — the shared
// xport schedule.
var DefaultRetryBackoff = xport.DefaultRetryBackoff

// Counter is the cluster-wide coalescing Fetch&Increment client: the
// shared transport-agnostic core (see xport.Counter) running over this
// package's TCP link.
type Counter = xport.Counter

// CounterStatus is a pooled counter client's /status document.
type CounterStatus = xport.CounterStatus

// NewCounter builds the coalescing counter client for the cluster with
// the default pool width (one session slot per input wire, the resource
// envelope of the pre-pool one-session-per-wire client).
func (c *Cluster) NewCounter() *Counter { return c.NewCounterPool(0) }

// NewCounterPool builds the coalescing counter client over a session pool
// retaining at most `width` idle sessions (width <= 0 defaults to the
// input width). Flights check sessions out round-robin; bursts beyond the
// width dial extra sessions that are retired on return. The counter owns
// a fresh client id that every pooled session announces, keying its
// exactly-once dedup windows on the shards.
func (c *Cluster) NewCounterPool(width int) *Counter {
	return xport.NewCounter(c, width)
}
