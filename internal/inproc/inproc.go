// Package inproc deploys a counting network across in-memory shards —
// the third transport behind the xport seam, and the proof that the
// seam is real: there is no socket anywhere in this package, yet the
// full client stack (coalescing Counter, health-probed session pool,
// exactly-once seq-tape retries, pid striping, control-plane sources)
// runs over it unchanged, because all of it lives in internal/xport and
// this package only supplies the link.
//
// A shard owns the same state as a tcpnet/udpnet shard (balancers,
// exit cells, per-client dedup windows) and serves the same frame
// semantics; an exchange is a function call instead of a round trip.
// That makes the transport ideal for the conformance suite, soak
// harnesses and multicore benches: deterministic, dependency-free, and
// with injectable Faults that lose calls or replies at exact frame
// boundaries — the in-memory analogue of cut connections and dropped
// datagrams, exercising the identical retry/replay machinery.
package inproc

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/network"
	"repro/internal/wire"
	"repro/internal/xport"
)

// ErrClosed is returned by Counter operations once Close has been
// called. It is the shared xport sentinel, so errors.Is matches across
// transports.
var ErrClosed = xport.ErrClosed

// errShardClosed is what an exchange against a closed shard returns —
// the in-memory analogue of a connection refused.
var errShardClosed = errors.New("inproc: shard closed")

// errInjected is the error a Faults-injected loss surfaces to the
// session — the analogue of a cut connection mid-frame.
var errInjected = errors.New("inproc: injected fault")

// Default retry budget the Cluster link advertises: like TCP, a failed
// in-memory exchange fails instantly, so the flight-level window is
// short.
const (
	DefaultRetryAttempts = xport.DefaultRetryAttempts
	DefaultRetryBudget   = 2 * time.Second
)

// DefaultRetryBackoff paces the pause between flight retries — the
// shared xport schedule.
var DefaultRetryBackoff = xport.DefaultRetryBackoff

// ShardConfig tunes a shard; the zero value is the production default
// (wire dedup bounds).
type ShardConfig struct {
	// Dedup sizes the per-client exactly-once windows; zero fields take
	// the wire defaults.
	Dedup wire.DedupConfig
}

// Shard is one in-memory balancer server: the shared serving core
// (xport.ShardCore) — the same balancers, counter cells, dedup windows
// and frame executor a tcpnet shard runs — behind a link that is a
// direct call. The core's state is safe for concurrent sessions exactly
// like the socket transports' shared server state.
type Shard struct {
	core   *xport.ShardCore
	closed atomic.Bool

	// Control-plane state, mirroring the socket shards: the shard's
	// slot in the partition, its registry of read-side metric views,
	// and atomics the exchange path bumps.
	index     int
	shards    int
	netName   string
	reg       *ctlplane.Registry
	sessions  atomic.Int64 // currently bound sessions (the conns gauge)
	sessTotal atomic.Int64
}

// newShard builds the shard owning every node and cell ≡ index (mod
// shards); cells are initialized to their wire index per §1.1.
func newShard(topo *network.Network, index, shards int, cfg ShardConfig) *Shard {
	s := &Shard{
		core:    xport.NewShardCore(topo, index, shards, cfg.Dedup),
		index:   index,
		shards:  shards,
		netName: topo.Name(),
		reg:     ctlplane.NewRegistry(),
	}
	labels := []ctlplane.Label{{Key: "transport", Value: "inproc"}, {Key: "shard", Value: strconv.Itoa(index)}}
	s.core.RegisterMetrics(s.reg, labels...)
	s.reg.Gauge(wire.MetricShardConnsOpen, wire.HelpShardConnsOpen, s.sessions.Load, labels...)
	s.reg.Counter(wire.MetricShardConns, wire.HelpShardConns, s.sessTotal.Load, labels...)
	return s
}

// Addr returns the shard's synthetic endpoint name, for /status parity
// with the socket transports.
func (s *Shard) Addr() string {
	return fmt.Sprintf("inproc://%s/%d", s.netName, s.index)
}

// Close stops the shard: every subsequent exchange fails (and idle
// sessions bound to it probe unhealthy). Idempotent.
func (s *Shard) Close() { s.closed.Store(true) }

// ShardStatus is a shard's /status document.
type ShardStatus struct {
	Transport string `json:"transport"`
	Addr      string `json:"addr"`
	Shard     int    `json:"shard"`
	Shards    int    `json:"shards"`
	Network   string `json:"network"`
	Balancers int    `json:"balancers"`
	Cells     int    `json:"cells"`
	Sessions  int    `json:"sessions"` // client sessions currently bound
}

// Health implements ctlplane.Source: the shard is live until Close and
// quiescent while no session is bound.
func (s *Shard) Health() ctlplane.Health {
	if s.closed.Load() {
		return ctlplane.Health{Detail: "closed"}
	}
	open := s.sessions.Load()
	return ctlplane.Health{
		Live:      true,
		Quiescent: open == 0,
		Detail:    fmt.Sprintf("%d bound sessions", open),
	}
}

// Status implements ctlplane.Source with the shard's topology slot.
func (s *Shard) Status() any {
	return ShardStatus{
		Transport: "inproc",
		Addr:      s.Addr(),
		Shard:     s.index,
		Shards:    s.shards,
		Network:   s.netName,
		Balancers: s.core.Balancers(),
		Cells:     s.core.Cells(),
		Sessions:  int(s.sessions.Load()),
	}
}

// Gather implements ctlplane.Source, evaluating the shard's registered
// metric views.
func (s *Shard) Gather() []ctlplane.Sample { return s.reg.Gather() }

// serve answers one frame under the session's dedup binding — the whole
// link: a closed shard refuses the call, the core does the rest.
func (s *Shard) serve(cl *wire.DedupEntry, f *wire.Frame) (int64, error) {
	if s.closed.Load() {
		return 0, errShardClosed
	}
	if !s.core.Check(f, cl != nil) {
		return 0, fmt.Errorf("inproc: protocol violation: op %d id %d count %d", f.Op, f.ID, f.N)
	}
	val, ok := s.core.Exec(cl, f)
	if !ok {
		return 0, fmt.Errorf("inproc: seq %d is past the dedup horizon", f.Seq)
	}
	return val, nil
}

// Faults injects loss into the in-memory link, the analogue of
// udpnet.Faults for a transport with no packets: probabilities are
// evaluated per exchange under a seeded deterministic source.
type Faults struct {
	// CallLoss is the probability an exchange is lost BEFORE the shard
	// applies it (a request that never arrived): the frame has no
	// effect and the session sees an error.
	CallLoss float64
	// ReplyLoss is the probability an exchange is lost AFTER the shard
	// applied it (a reply that never arrived): the mutation landed but
	// the session sees an error — the exactly-once crunch case, since
	// the retry MUST be replayed, not re-executed.
	ReplyLoss float64
	// Seed seeds the fault source; runs with the same seed and
	// schedule draw the same losses.
	Seed int64
}

// Cluster is a client-side view of an in-memory deployment: the
// topology plus its shards. It implements xport.Link, so the shared
// Counter/pool/retry/striping stack runs over it unchanged.
type Cluster struct {
	net    *network.Network
	shards []*Shard

	fmu    sync.Mutex
	faults Faults
	rng    *rand.Rand

	// loseReplies is the deterministic fault arm: the next n mutating
	// exchanges apply server-side but report failure.
	loseReplies atomic.Int64
}

// NewCluster wires a topology to in-memory shards (shard i owns nodes
// and cells ≡ i mod len(shards)).
func NewCluster(n *network.Network, shards []*Shard) *Cluster {
	return &Cluster{net: n, shards: shards}
}

// StartCluster builds one in-memory deployment of topo partitioned
// across `shards` shards and returns the client cluster plus a stop
// function closing every shard — the same harness shape as the socket
// transports, so conformance fixtures swap transports freely.
func StartCluster(topo *network.Network, shards int) (*Cluster, func(), error) {
	return StartClusterConfig(topo, shards, ShardConfig{})
}

// StartClusterConfig is StartCluster with per-deployment shard tuning
// (dedup-window sizing).
func StartClusterConfig(topo *network.Network, shards int, cfg ShardConfig) (*Cluster, func(), error) {
	servers := make([]*Shard, shards)
	for i := 0; i < shards; i++ {
		servers[i] = newShard(topo, i, shards, cfg)
	}
	stop := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return NewCluster(topo, servers), stop, nil
}

// Shard returns the i-th shard of the deployment — the control plane
// scrapes its registry and health the way it scrapes a socket shard's.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// SetFaults installs probabilistic call/reply loss on every subsequent
// exchange (the zero value clears). Safe to call while sessions run.
func (c *Cluster) SetFaults(f Faults) {
	c.fmu.Lock()
	c.faults = f
	if f.CallLoss > 0 || f.ReplyLoss > 0 {
		c.rng = rand.New(rand.NewSource(f.Seed))
	} else {
		c.rng = nil
	}
	c.fmu.Unlock()
}

// LoseReplies arms the deterministic fault: the next n mutating
// exchanges are applied by their shard but reported lost to the
// session, forcing the flight onto its exactly-once retry path at an
// exact frame boundary.
func (c *Cluster) LoseReplies(n int64) { c.loseReplies.Add(n) }

// inject decides whether this exchange is lost, and at which side.
// applied=true means the frame must still reach the shard (reply
// loss); applied=false means it must not (call loss).
func (c *Cluster) inject(mutating bool) (lose, applied bool) {
	if mutating {
		for {
			n := c.loseReplies.Load()
			if n <= 0 {
				break
			}
			if c.loseReplies.CompareAndSwap(n, n-1) {
				return true, true
			}
		}
	}
	c.fmu.Lock()
	defer c.fmu.Unlock()
	if c.rng == nil {
		return false, false
	}
	if c.faults.CallLoss > 0 && c.rng.Float64() < c.faults.CallLoss {
		return true, false
	}
	if c.faults.ReplyLoss > 0 && c.rng.Float64() < c.faults.ReplyLoss {
		return true, true
	}
	return false, false
}

// Hops returns the number of exchanges one single-token Inc costs.
func (c *Cluster) Hops() int { return c.net.Depth() + 1 }

// Transport implements xport.Link: the metrics label and /status
// discriminator.
func (c *Cluster) Transport() string { return "inproc" }

// Addrs implements xport.Link with the shards' synthetic endpoints.
func (c *Cluster) Addrs() []string {
	addrs := make([]string, len(c.shards))
	for i, s := range c.shards {
		addrs[i] = s.Addr()
	}
	return addrs
}

// InWidth implements xport.Link with the topology's input width.
func (c *Cluster) InWidth() int { return c.net.InWidth() }

// OutWidth implements xport.Link with the topology's output width.
func (c *Cluster) OutWidth() int { return c.net.OutWidth() }

// Topology names the deployed network, for fleet names (xport.NewFleet).
func (c *Cluster) Topology() string { return c.net.Name() }

// RetryBudget implements xport.Link: in-memory exchanges fail
// instantly, so the flight-level retry window is short, like TCP's.
func (c *Cluster) RetryBudget() time.Duration { return DefaultRetryBudget }

// Dial implements xport.Link: a session bound (and pinned) to the given
// client id's dedup window on every shard.
func (c *Cluster) Dial(client uint64) (xport.Session, error) {
	return c.newSession(client)
}

// NewSession binds a standalone session under a fresh client id. Unlike
// the socket transports there is no v1 mode: binding a dedup window is
// a map entry, not a connection, so every session speaks the
// seq-numbered protocol.
func (c *Cluster) NewSession() (*Session, error) {
	return c.newSession(wire.NextClientID())
}

func (c *Cluster) newSession(client uint64) (*Session, error) {
	s := &Session{
		c:       c,
		client:  client,
		entries: make([]*wire.DedupEntry, len(c.shards)),
		walk:    xport.NewWalk(c.net, len(c.shards)),
	}
	for i, sh := range c.shards {
		if sh.closed.Load() {
			s.release(i)
			return nil, fmt.Errorf("inproc: dial shard %d: %w", i, errShardClosed)
		}
		s.entries[i] = sh.core.Dedup().Bind(client)
		sh.sessions.Add(1)
		sh.sessTotal.Add(1)
	}
	return s, nil
}

// Session is a single-goroutine client: one pinned dedup binding per
// shard (the analogue of tcpnet's one connection per shard — the
// binding is what keeps the client's exactly-once windows safe from
// LRU eviction while the session lives). The protocol logic lives in
// the shared xport.Walk; this type supplies only the in-memory link.
type Session struct {
	c       *Cluster
	client  uint64
	entries []*wire.DedupEntry
	rpcs    atomic.Int64
	seqs    atomic.Uint64
	tape    *wire.SeqTape
	walk    *xport.Walk
	closed  bool
}

// release unbinds the first n shard entries (all of them for n =
// len(entries)).
func (s *Session) release(n int) {
	for i := 0; i < n; i++ {
		if s.entries[i] != nil {
			s.c.shards[i].core.Dedup().Release(s.entries[i])
			s.c.shards[i].sessions.Add(-1)
			s.entries[i] = nil
		}
	}
}

// Close unbinds the session from every shard's dedup window.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.release(len(s.entries))
}

// RPCs returns the exchanges this session has completed — the same
// per-frame cost unit as the socket transports' RPCs, counted on
// success only, so the frame bill is integer-identical to TCP's.
func (s *Session) RPCs() int64 { return s.rpcs.Load() }

// SetTape points the session's mutating-frame sequence source at a
// flight's rewindable tape (nil restores the session's own counter).
func (s *Session) SetTape(tape *wire.SeqTape) { s.tape = tape }

// Healthy implements the xport pool's checkout probe: an idle session
// is stale once any of its shards closed — the analogue of the TCP
// probe seeing a FIN.
func (s *Session) Healthy() bool {
	for _, sh := range s.c.shards {
		if sh.closed.Load() {
			return false
		}
	}
	return true
}

// nextSeq draws the next mutating-frame sequence number: from the
// owning Counter's tape during a flight (replayable on retry), from the
// session's own counter otherwise.
func (s *Session) nextSeq() uint64 {
	if s.tape != nil {
		return s.tape.Take()
	}
	return s.seqs.Add(1)
}

// Exchange implements xport.Exchanger: one frame served by the owning
// shard, through the cluster's fault injection. Mutating ops are
// seq-numbered and deduplicated; READ is non-mutating and carries no
// sequence number.
func (s *Session) Exchange(shard int, op byte, id int32, n int64) (int64, error) {
	var f wire.Frame
	mutating := op != wire.OpRead
	if mutating {
		f = wire.Frame{Op: wire.V2Op(op), ID: id, Seq: s.nextSeq(), N: n}
	} else {
		f = wire.Frame{Op: wire.OpRead, ID: id}
	}
	lose, applied := s.c.inject(mutating)
	if lose && !applied {
		return 0, errInjected
	}
	v, err := s.c.shards[shard].serve(s.entries[shard], &f)
	if err != nil {
		return 0, err
	}
	if lose {
		return 0, errInjected
	}
	s.rpcs.Add(1)
	return v, nil
}

// Inc shepherds one token through the network and returns its counter
// value — depth exchanges for the balancer crossings plus one for the
// exit cell, via the shared walk.
func (s *Session) Inc(pid int) (int64, error) { return s.walk.Inc(s, pid) }

// Batch shepherds k tokens (anti: antitokens) entering on input wire
// `in` as one batched pipeline, via the shared walk (implements
// xport.Session).
func (s *Session) Batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	return s.walk.Batch(s, in, k, anti, dst)
}

// IncBatch claims k values entering on wire pid mod w, appending them
// to dst — the standalone-session convenience mirroring the socket
// transports.
func (s *Session) IncBatch(pid, k int, dst []int64) ([]int64, error) {
	if k <= 0 {
		return dst, nil
	}
	return s.Batch(pid%s.c.net.InWidth(), int64(k), false, dst)
}

// DecBatch revokes k values as one batched antitoken pipeline.
func (s *Session) DecBatch(pid, k int, dst []int64) ([]int64, error) {
	if k <= 0 {
		return dst, nil
	}
	return s.Batch(pid%s.c.net.InWidth(), int64(k), true, dst)
}

// ReadCell returns exit cell w's current value without modifying it.
func (s *Session) ReadCell(w int) (int64, error) { return s.walk.ReadCell(s, w) }

// Read sums the exit cells into the deployment's quiescent net count.
func (s *Session) Read() (int64, error) { return s.walk.Read(s) }

// Counter is the deployment-wide coalescing Fetch&Increment client: the
// shared transport-agnostic core (see xport.Counter) over the in-memory
// link.
type Counter = xport.Counter

// CounterStatus is a pooled counter client's /status document.
type CounterStatus = xport.CounterStatus

// NewCounter builds the coalescing counter client with the default pool
// width (one session slot per input wire).
func (c *Cluster) NewCounter() *Counter { return c.NewCounterPool(0) }

// NewCounterPool builds the coalescing counter client over a session
// pool retaining at most width idle sessions (width <= 0 defaults to
// the input width) — the one shared implementation in xport.
func (c *Cluster) NewCounterPool(width int) *Counter {
	return xport.NewCounter(c, width)
}
