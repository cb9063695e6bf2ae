package udpnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/balancer"
	"repro/internal/network"
	"repro/internal/wire"
)

// Default retransmit budget: an exchange sends its request packet up to
// DefaultRetransmitAttempts times within DefaultRetransmitBudget of the
// first send, the per-attempt listening window growing along
// DefaultRetransmitTimer. Loss, duplication and reordering inside the
// budget are absorbed silently; only a shard unreachable for the whole
// budget surfaces an error.
const (
	DefaultRetransmitAttempts = 8
	DefaultRetransmitBudget   = 2 * time.Second
)

// DefaultRetransmitTimer is the jittered exponential retransmit
// schedule: the attempt-n response window is Delay(n) in
// [7.5ms, 15ms] doubling up to 200ms. Jitter keeps a fleet of clients
// that lost the same shard from retransmitting in lockstep.
var DefaultRetransmitTimer = wire.Backoff{Base: 15 * time.Millisecond, Max: 200 * time.Millisecond}

// Cluster is a client-side view of a UDP-sharded deployment: the
// topology plus shard addresses (shard i owns nodes and cells ≡ i mod
// len(addrs), as in tcpnet).
type Cluster struct {
	net      *network.Network
	addrs    []string
	stride   int64
	exits    []int32 // every exit wire, the id list of a cell phase or a READ
	dialWrap func(net.Conn) net.Conn

	mu       sync.Mutex // guards policy, timer and pipeline against racing sessions
	policy   wire.RetryPolicy
	timer    wire.Backoff
	pipeline int
}

// NewCluster wires a topology to its shard addresses with the default
// retransmit policy.
func NewCluster(n *network.Network, addrs []string) *Cluster {
	exits := make([]int32, n.OutWidth())
	for w := range exits {
		exits[w] = int32(w)
	}
	return &Cluster{
		net:      n,
		addrs:    addrs,
		stride:   int64(n.OutWidth()),
		exits:    exits,
		policy:   wire.RetryPolicy{Attempts: DefaultRetransmitAttempts, Budget: DefaultRetransmitBudget},
		timer:    DefaultRetransmitTimer,
		pipeline: 1,
	}
}

// StartCluster launches one loopback deployment of topo partitioned
// across `shards` UDP servers and returns the client cluster plus a
// stop function closing every server — the test/benchmark harness;
// production deployments build Clusters over real addresses with
// NewCluster.
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

// SetDialWrapper installs a hook wrapping every socket a new session
// opens — the packet-path fault-injection point (see Faults) the chaos
// tests and countbench's E28 loss sweep use to drop, duplicate, reorder
// and delay datagrams deterministically. Pass nil to clear. Not safe to
// change while sessions are being created.
func (c *Cluster) SetDialWrapper(w func(net.Conn) net.Conn) { c.dialWrap = w }

// SetRetransmitPolicy bounds the per-exchange retransmit path of
// sessions created after the call: at most policy.Attempts sends of a
// request packet within policy.Budget of the first (Budget <= 0 removes
// the time bound), listening timer.Delay(n) after send n. Zero-valued
// timer fields take the wire defaults.
func (c *Cluster) SetRetransmitPolicy(policy wire.RetryPolicy, timer wire.Backoff) {
	if policy.Attempts < 1 {
		policy.Attempts = 1
	}
	c.mu.Lock()
	c.policy = policy
	c.timer = timer
	c.mu.Unlock()
}

// SetPipeline sets the per-socket window of sessions created after the
// call: how many request datagrams a session keeps outstanding on one
// socket at once (see pipeline.go). depth <= 1 is a window of one. The
// depth changes neither the frames, their (client, seq) pairs, nor how
// they pack into datagrams — a layer always fans out to every shard
// before awaiting any — so the exactly-once guarantee and the frame and
// packet bills are the same at every depth; a deeper window only lets a
// shard's share of a wide layer, more than one datagram, travel in one
// burst.
func (c *Cluster) SetPipeline(depth int) {
	if depth < 1 {
		depth = 1
	}
	c.mu.Lock()
	c.pipeline = depth
	c.mu.Unlock()
}

// Pipeline returns the configured per-socket window depth.
func (c *Cluster) Pipeline() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipeline
}

// Hops returns the number of frame round trips one single-token Inc
// costs — depth + 1, identical to tcpnet (the transports speak the same
// frames; UDP just packs more of them per datagram on batched paths).
func (c *Cluster) Hops() int { return c.net.Depth() + 1 }

// Session is a single-goroutine client: one connected UDP socket per
// shard, each with its window of outstanding request datagrams (see
// pipeline.go). Every session speaks protocol v2 — each request packet
// opens with HELLO binding it to the session owner's client id and every
// mutating frame is seq-numbered — because over a lossy transport the
// retransmit path is not optional, and only deduplicated frames can be
// retransmitted safely.
type Session struct {
	c       *Cluster
	client  uint64
	socks   []sock
	policy  wire.RetryPolicy
	timer   wire.Backoff
	depth   int           // per-socket window, fixed at dial
	rpcs    atomic.Int64  // request frames sent (retransmits included)
	packets atomic.Int64  // request datagrams sent, first sends and retransmits
	retrans atomic.Int64  // of which retransmits
	seqs    atomic.Uint64 // mutating-frame sequences outside a flight
	tape    *wire.SeqTape // set by a Counter flight for replayable sequences
	reqid   uint64        // request-id source (sessions are single-goroutine)

	// outstanding is the in-flight gauge the control plane reads.
	outstanding atomic.Int64

	// Window and walk scratch, reused across calls.
	free    []*handle
	rbuf    []byte
	frames  []wire.Frame
	fpkt    []wire.Frame
	vals    []int64
	pending []int64
	tally   []int64
	dist    []int64
}

// NewSession opens one socket per shard under a fresh client id.
func (c *Cluster) NewSession() (*Session, error) {
	return c.newSession(wire.NextClientID())
}

func (c *Cluster) newSession(client uint64) (*Session, error) {
	c.mu.Lock()
	policy, timer, depth := c.policy, c.timer, c.pipeline
	c.mu.Unlock()
	s := &Session{
		c:      c,
		client: client,
		socks:  make([]sock, len(c.addrs)),
		policy: policy,
		timer:  timer,
		depth:  depth,
		rbuf:   make([]byte, wire.MaxDatagram),
	}
	for i, addr := range c.addrs {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("udpnet: dial shard %d: %w", i, err)
		}
		if c.dialWrap != nil {
			conn = c.dialWrap(conn)
		}
		s.socks[i] = sock{shard: i, conn: conn, seg: newSegSender(conn)}
	}
	return s, nil
}

// Close drops the session's sockets. It may be called from another
// goroutine while the session is mid-exchange: every packet still
// outstanding then completes with the socket's close error.
func (s *Session) Close() {
	for i := range s.socks {
		if conn := s.socks[i].conn; conn != nil {
			conn.Close()
		}
	}
}

// RPCs returns the number of request frames this session has sent,
// retransmitted copies included — the same per-frame cost unit as
// tcpnet.Session.RPCs, so the transports' E25-E28 columns compare
// directly. At zero loss it equals the tcpnet bill exactly.
func (s *Session) RPCs() int64 { return s.rpcs.Load() }

// Packets returns the request datagrams sent (first sends plus
// retransmits) — the link-level cost a datagram transport actually
// pays; batched walks pack many frames into each.
func (s *Session) Packets() int64 { return s.packets.Load() }

// Retransmits returns how many of those datagrams were retransmissions.
func (s *Session) Retransmits() int64 { return s.retrans.Load() }

// Outstanding returns the request datagrams currently in the session's
// windows (implements xport.PacketSession).
func (s *Session) Outstanding() int64 { return s.outstanding.Load() }

// SetTape points the session's mutating-frame sequence source at a
// flight's rewindable tape (nil restores the session's own counter) —
// the xport pool calls it around every flight attempt so retries
// re-send identical (client, seq) pairs.
func (s *Session) SetTape(tape *wire.SeqTape) { s.tape = tape }

// Healthy implements the xport pool's checkout probe. A UDP socket has
// no peer state to go stale — failure lives entirely in the exchange
// retransmit path — so an idle session is always healthy.
func (s *Session) Healthy() bool { return true }

// nextSeq draws the next mutating-frame sequence number: from the
// owning Counter's tape during a flight (replayable on retry), from the
// session's own counter otherwise.
func (s *Session) nextSeq() uint64 {
	if s.tape != nil {
		return s.tape.Take()
	}
	return s.seqs.Add(1)
}

// mut builds one seq-numbered v2 mutating frame from its v1 op.
func (s *Session) mut(op byte, id int32, n int64) wire.Frame {
	return wire.Frame{Op: wire.V2Op(op), ID: id, Seq: s.nextSeq(), N: n}
}

// exchange performs one single-frame round trip against a shard and
// returns the frame's reply value: the frame travels in a packet of its
// own, retransmitted under the session's policy until the matching
// response (by request id) arrives.
func (s *Session) exchange(shard int, f wire.Frame) (int64, error) {
	k := &s.socks[shard]
	one := [1]wire.Frame{f}
	s.submit(k, one[:])
	s.flush(k)
	vals, err := s.await(k, s.vals[:0])
	s.vals = vals[:0]
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// chunkEnd returns the end of the datagram-sized chunk starting at
// start: the longest prefix fitting both the wire.MaxDatagram request
// budget and the 8-bytes-per-frame response budget. How frames pack
// into packets depends on nothing else — not on the window depth.
func chunkEnd(frames []wire.Frame, start int) int {
	reqBytes := wire.PacketOverhead + wire.FrameLen(wire.OpHello)
	respBytes := wire.PacketOverhead
	end := start
	for end < len(frames) {
		fl := wire.FrameLen(frames[end].Op)
		if end > start && (reqBytes+fl > wire.MaxDatagram || respBytes+8 > wire.MaxDatagram) {
			break
		}
		reqBytes += fl
		respBytes += 8
		end++
	}
	return end
}

// fan runs one phase of a walk against every shard at once: a layer of
// STEPN frames, the exit-cell CELLN frames, or a cluster-wide READ. For
// each shard in turn it builds one frame per id the shard owns (id ≡
// shard mod S; mutating ops skip ids whose count is zero and send the
// count negated for antitokens), splits them into datagram-sized chunks
// and puts them on the wire; only then does it await the shards, again
// in order, handing each one's ids and reply values to apply. The phase
// costs one round trip across all shards, and sequence numbers are
// drawn shard by shard, id by id — the order a rewound flight replays.
// On an error the remaining shards are still awaited (every submitted
// packet is collected exactly once) but no longer applied, and the
// first error is reported.
func (s *Session) fan(op byte, ids []int32, counts []int64, anti bool, apply func(ids []int32, vals []int64)) error {
	shards := len(s.socks)
	for shard := range s.socks {
		k := &s.socks[shard]
		k.ids = k.ids[:0]
		s.frames = s.frames[:0]
		for _, id := range ids {
			if int(id)%shards != shard {
				continue
			}
			f := wire.Frame{Op: wire.OpRead, ID: id}
			if op != wire.OpRead {
				n := counts[id]
				if n == 0 {
					continue
				}
				if anti {
					n = -n
				}
				wid := id
				if op == wire.OpCellN {
					// The stride rides in the id's upper bits (see Shard.apply).
					wid |= int32(s.c.stride) << 16
				}
				f = s.mut(op, wid, n)
			}
			s.frames = append(s.frames, f)
			k.ids = append(k.ids, id)
		}
		for start := 0; start < len(s.frames); {
			end := chunkEnd(s.frames, start)
			s.submit(k, s.frames[start:end])
			start = end
		}
		s.flush(k)
	}
	var firstErr error
	for shard := range s.socks {
		k := &s.socks[shard]
		vals, err := s.await(k, s.vals[:0])
		s.vals = vals[:0]
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if firstErr == nil {
			apply(k.ids, vals)
		}
	}
	return firstErr
}

// Inc shepherds one token through the distributed network and returns
// its counter value: depth single-frame exchanges for the balancer
// crossings plus one for the exit cell, each reply steering the next
// hop. A retried Inc walks the identical path — the dedup windows
// replay the original ports for already-applied sequences.
func (s *Session) Inc(pid int) (int64, error) {
	shards := len(s.socks)
	in := pid % s.c.net.InWidth()
	node, port := s.c.net.InputDest(in)
	for node >= 0 {
		out, err := s.exchange(node%shards, s.mut(wire.OpStep, int32(node), 0))
		if err != nil {
			return 0, err
		}
		node, port = s.c.net.Dest(node, int(out))
	}
	return s.exchange(port%shards, s.mut(wire.OpCell, int32(port)|int32(s.c.stride)<<16, 0))
}

// Dec shepherds one antitoken through the network (one-element
// DecBatch).
func (s *Session) Dec(pid int) (int64, error) {
	var one [1]int64
	vals, err := s.DecBatch(pid, 1, one[:0])
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// IncBatch performs k Fetch&Increment operations as one batched
// pipeline entering on wire pid mod w, appending the k claimed values
// to dst: one STEPN frame per balancer touched, one CELLN per exit wire
// touched, the frames packed into one datagram per (layer, shard) plus
// one per shard for the cell phase. k <= 0 sends nothing.
func (s *Session) IncBatch(pid, k int, dst []int64) ([]int64, error) {
	if k <= 0 {
		return dst, nil
	}
	return s.Batch(pid%s.c.net.InWidth(), int64(k), false, dst)
}

// DecBatch is IncBatch for Fetch&Decrement: the batched frames carry a
// negative count and the k revoked values come back, newest-issued
// first per exit cell.
func (s *Session) DecBatch(pid, k int, dst []int64) ([]int64, error) {
	if k <= 0 {
		return dst, nil
	}
	return s.Batch(pid%s.c.net.InWidth(), int64(k), true, dst)
}

// Batch walks the topology layer by layer (implements xport.Session;
// `in` is the input wire, already reduced mod InWidth). Within a layer
// no balancer feeds another, so every pending group in it is final the
// moment the previous layer finished — the session packs the layer's
// STEPN frames by owning shard into as few datagrams as the MTU budget
// allows, folds the split arithmetic locally from the replied first
// indices (it knows the wiring and initial states, exactly like tcpnet),
// and finishes with the exit-cell CELLN frames packed per shard. The
// walk is deterministic in (wire, k, anti), so a retried flight re-sends
// the identical frame sequence and the dedup windows make it
// exactly-once.
func (s *Session) Batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	n := s.c.net
	if s.pending == nil {
		s.pending = make([]int64, n.Size())
		s.tally = make([]int64, n.OutWidth())
	}
	pending, tally := s.pending, s.tally
	clear(tally)
	nd, port := n.InputDest(in)
	if nd < 0 {
		tally[port] += k
	} else {
		pending[nd] = k
	}
	for _, layer := range n.Layers() {
		err := s.fan(wire.OpStepN, layer, pending, anti, func(ids []int32, vals []int64) {
			s.applyStep(ids, vals, pending, tally)
		})
		if err != nil {
			clear(pending) // leave the scratch reusable
			return dst, err
		}
	}
	err := s.fan(wire.OpCellN, s.c.exits, tally, anti, func(ids []int32, vals []int64) {
		dst = s.applyCells(ids, vals, tally, anti, dst)
	})
	return dst, err
}

// applyStep folds one shard's STEPN replies back into the walk: each
// first transition index distributes that balancer's pending group
// across its output ports, landing on next-layer balancers or the exit
// tally.
func (s *Session) applyStep(ids []int32, vals []int64, pending, tally []int64) {
	n := s.c.net
	for i, id := range ids {
		c := pending[id]
		pending[id] = 0
		node := n.Node(int(id))
		q := node.Out()
		if cap(s.dist) < q {
			s.dist = make([]int64, q)
		}
		counts := balancer.DistributeInto(node.Balancer().Init()+vals[i], c, s.dist[:q])
		for p, cnt := range counts {
			if cnt == 0 {
				continue
			}
			dnd, dport := n.Dest(int(id), p)
			if dnd < 0 {
				tally[dport] += cnt
			} else {
				pending[dnd] += cnt
			}
		}
	}
}

// applyCells unfolds one shard's CELLN replies into the claimed values,
// newest-issued first per exit cell for antitokens.
func (s *Session) applyCells(ids []int32, vals []int64, tally []int64, anti bool, dst []int64) []int64 {
	stride := s.c.stride
	for i, wireOut := range ids {
		cnt := tally[wireOut]
		end := vals[i]
		if anti {
			for v := end + stride*(cnt-1); v >= end; v -= stride {
				dst = append(dst, v)
			}
		} else {
			for v := end - stride*cnt; v < end; v += stride {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// ReadCell returns exit cell w's current value without modifying it
// (op READ, idempotent so retransmit-safe without a sequence number).
func (s *Session) ReadCell(w int) (int64, error) {
	return s.exchange(w%len(s.socks), wire.Frame{Op: wire.OpRead, ID: int32(w)})
}

// Read sums the exit cells into the cluster's net count (increments
// minus decrements), the READ frames packed per shard and every shard
// asked at once — a whole-cluster exact-count read costs one round trip
// of one datagram per shard (per MTU chunk). Only meaningful while the
// cluster is quiescent, like counter.Network.Issued.
func (s *Session) Read() (int64, error) {
	var total int64
	err := s.fan(wire.OpRead, s.c.exits, nil, false, func(ids []int32, vals []int64) {
		for i, w := range ids {
			total += (vals[i] - int64(w)) / s.c.stride
		}
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}
