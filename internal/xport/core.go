package xport

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/balancer"
	"repro/internal/ctlplane"
	"repro/internal/network"
	"repro/internal/wire"
)

// ShardCore is the serving seam — the server-side mirror of Walk: the
// protocol state one shard owns and the one executor of a request frame
// against it. In the paper a balancer is one shared word and an exit
// cell one counter (§1.1, §1.2), so everything a shard serves is the
// small state machine here; tcpnet, udpnet and inproc keep only their
// links (accept/read/write loops, sockets and packing, fault injection)
// and the HELLO binding, whose lifetime is the link's — a connection,
// a datagram, a session.
//
// A link serves a decoded non-HELLO frame in two steps: Check refuses a
// frame that must not run, with no side effect, so a datagram link can
// validate a whole packet before executing any of it; Exec answers a
// checked frame. The frames counter is bumped in Exec and nowhere else:
// countnet_shard_frames_total is the frames Exec answered, replays
// included, HELLO bindings and refused frames not — so on a lossless run
// the sum over shards equals the clients' RPCs on every transport.
type ShardCore struct {
	index, shards int
	size, width   int // topology bounds: node ids < size, exit wires < width

	// A shard owns the ids ≡ index (mod shards), so id lives in slot
	// id / shards of a dense slice.
	bals  []paddedPQ
	cells []atomic.Int64

	dedup  *wire.Dedup
	frames atomic.Int64
}

// paddedPQ is a balancer padded to 64 bytes: the shard's balancers are
// one allocation, and their state words sit a cache line apart.
type paddedPQ struct {
	balancer.PQ
	_ [40]byte
}

// NewShardCore builds the state of shard `index` of `shards`: every
// balancer with id ≡ index (mod shards) in its topology initial state,
// every exit cell with wire ≡ index (mod shards) initialized to its wire
// index per §1.1, and an empty exactly-once table with cfg's bounds.
func NewShardCore(topo *network.Network, index, shards int, cfg wire.DedupConfig) *ShardCore {
	if index < 0 || index >= shards {
		panic(fmt.Sprintf("xport: shard index %d outside a partition of %d", index, shards))
	}
	c := &ShardCore{
		index:  index,
		shards: shards,
		size:   topo.Size(),
		width:  topo.OutWidth(),
		dedup:  wire.NewDedup(cfg),
	}
	c.bals = make([]paddedPQ, (c.size-index+shards-1)/shards)
	for i := range c.bals {
		nd := topo.Node(index + i*shards)
		c.bals[i].Set(nd.In(), nd.Out(), nd.Balancer().Init())
	}
	c.cells = make([]atomic.Int64, (c.width-index+shards-1)/shards)
	for i := range c.cells {
		c.cells[i].Store(int64(index + i*shards))
	}
	return c
}

// Balancers returns how many balancer nodes the shard owns, for /status.
func (c *ShardCore) Balancers() int { return len(c.bals) }

// Cells returns how many exit cells the shard owns, for /status.
func (c *ShardCore) Cells() int { return len(c.cells) }

// Dedup returns the shard's exactly-once table. Links Bind a client's
// entry on HELLO, pass it to Exec, and Release it when the binding ends.
func (c *ShardCore) Dedup() *wire.Dedup { return c.dedup }

// RegisterMetrics exposes the frames counter and the dedup table on a
// shard's control-plane registry.
func (c *ShardCore) RegisterMetrics(r *ctlplane.Registry, labels ...ctlplane.Label) {
	r.Counter(wire.MetricShardFrames, wire.HelpShardFrames, c.frames.Load, labels...)
	c.dedup.RegisterMetrics(r, labels...)
}

// sequenced reports whether op is a v2 mutating op: it carries a
// per-client sequence number and executes behind the dedup gate.
func sequenced(op byte) bool {
	switch op {
	case wire.OpStep2, wire.OpCell2, wire.OpStepN2, wire.OpCellN2:
		return true
	}
	return false
}

// owns reports whether id is one of this shard's ids below bound n.
func (c *ShardCore) owns(id int32, n int) bool {
	return id >= 0 && int(id) < n && int(id)%c.shards == c.index
}

// Check reports whether Exec may answer f; bound is whether the link has
// a client binding (a HELLO seen) for it. Refused — a protocol violation,
// the link drops the connection or the packet — are an op the executor
// does not serve (HELLO included: binding is the link's), a node or cell
// this shard does not own, a batch of zero or of math.MinInt64 (its
// negation overflows back to itself and would panic StepAntiN), and a
// sequenced op without a binding. READ is non-mutating and needs none.
func (c *ShardCore) Check(f *wire.Frame, bound bool) bool {
	if sequenced(f.Op) && !bound {
		return false
	}
	switch f.Op {
	case wire.OpStepN, wire.OpStepN2, wire.OpCellN, wire.OpCellN2:
		if f.N == 0 || f.N == math.MinInt64 {
			return false
		}
	}
	switch f.Op {
	case wire.OpStep, wire.OpStep2, wire.OpStepN, wire.OpStepN2:
		return c.owns(f.ID, c.size)
	case wire.OpRead:
		return c.owns(f.ID, c.width)
	case wire.OpCell, wire.OpCell2, wire.OpCellN, wire.OpCellN2:
		return c.owns(f.ID&0xffff, c.width)
	}
	return false
}

// Exec answers a frame Check accepted. A sequenced op goes through the
// client's exactly-once window e: an already-applied sequence is answered
// from its record without touching the state, and one whose history is
// gone is refused — (0, false), the link drops it unanswered (see
// wire.DedupEntry.Do). READ and the stateless v1 ops apply directly.
func (c *ShardCore) Exec(e *wire.DedupEntry, f *wire.Frame) (int64, bool) {
	val, ok := int64(0), true
	if sequenced(f.Op) {
		val, ok = e.Do(f.Seq, func() (int64, bool) { return c.apply(f), true })
	} else {
		val = c.apply(f)
	}
	if ok {
		c.frames.Add(1)
	}
	return val, ok
}

// apply is the state transition itself; v1 and v2 ops share it.
func (c *ShardCore) apply(f *wire.Frame) int64 {
	switch f.Op {
	case wire.OpStep, wire.OpStep2:
		return int64(c.bals[int(f.ID)/c.shards].Step())
	case wire.OpStepN, wire.OpStepN2:
		// One transition for the whole group: its first sequence index
		// comes back; the client folds the split arithmetic.
		b := &c.bals[int(f.ID)/c.shards]
		if f.N > 0 {
			return b.StepN(f.N)
		}
		return b.StepAntiN(-f.N)
	case wire.OpRead:
		// Non-mutating cell read: id is the bare wire index.
		return c.cells[int(f.ID)/c.shards].Load()
	case wire.OpCell, wire.OpCell2, wire.OpCellN, wire.OpCellN2:
		// The stride (output width t) rides in the upper bits of the id
		// to keep the protocol stateless: id = wire | stride<<16 (Walk
		// packs it). Networks therefore must have t < 65536 — far beyond
		// any practical configuration.
		cell := &c.cells[int(f.ID&0xffff)/c.shards]
		stride := int64(f.ID >> 16)
		if f.Op == wire.OpCell || f.Op == wire.OpCell2 {
			return cell.Add(stride) - stride
		}
		// Batched claim (n > 0) or revocation (n < 0): reply with the
		// cell value after the add; the client reconstructs the |n|
		// individual values.
		return cell.Add(stride * f.N)
	}
	panic(fmt.Sprintf("xport: Exec of op %d, which Check refuses", f.Op))
}
