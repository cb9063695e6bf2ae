// Package network provides the balancing-network substrate of the paper
// (§1.1, §2.2): acyclic networks of (p,q)-balancers with ordered wires,
// built through a Builder whose API mirrors the paper's "directly-connected
// sequences" style, supporting
//
//   - lock-free concurrent token (and antitoken) traversal,
//   - O(#balancers) quiescent-state evaluation from input token counts,
//   - depth / layer decomposition (§2.2),
//   - structural analysis and verification (counting, smoothing,
//     difference-merging behaviour in quiescent states),
//   - stall-instrumented traversal for measured contention.
//
// Networks are immutable after Builder.Finalize except for balancer states.
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/balancer"
)

// External marks a port endpoint on the network boundary rather than on a
// balancer node.
const External = int32(-1)

// endpoint identifies where a wire leads: either input port `port` of node
// `node`, or (node == External) network output wire `port`. Symmetrically
// for sources: either output port of a node or a network input wire.
type endpoint struct {
	node int32
	port int32
}

// Node is one balancer inside a network.
type Node struct {
	bal   *balancer.PQ // the node's line of the network's balancer arena
	out   []endpoint   // destination of each output port, a view of the flat wiring
	in    []endpoint   // source of each input port, a view of the flat wiring
	depth int32        // 1-based layer index (§2.2)
	id    int32
}

// In returns the node's input width.
func (n *Node) In() int { return n.bal.In() }

// Out returns the node's output width.
func (n *Node) Out() int { return n.bal.Out() }

// Depth returns the node's 1-based depth (layer index).
func (n *Node) Depth() int { return int(n.depth) }

// ID returns the node's index within its network.
func (n *Node) ID() int { return int(n.id) }

// Balancer exposes the node's balancer state machine.
func (n *Node) Balancer() *balancer.PQ { return n.bal }

// Network is a finalized balancing network.
type Network struct {
	name     string
	inWidth  int
	outWidth int
	nodes    []Node
	inputs   []endpoint // per input wire: the consumer it feeds
	sources  []endpoint // per output wire: the producer feeding it
	depth    int
	layers   [][]int32 // node ids grouped by depth, 0-indexed by depth-1

	occ    []atomic.Int64 // per-node occupancy, for instrumented traversal
	labels []string       // optional per-node block labels

	batchPool sync.Pool // *batchScratch, reused across TraverseBatch calls
}

// Name returns the network's descriptive name.
func (n *Network) Name() string { return n.name }

// InWidth returns the number of network input wires (w in the paper).
func (n *Network) InWidth() int { return n.inWidth }

// OutWidth returns the number of network output wires (t in the paper).
func (n *Network) OutWidth() int { return n.outWidth }

// Depth returns the network depth: the maximum number of balancers on any
// input-to-output path (§2.2). A balancer-free network has depth 0.
func (n *Network) Depth() int { return n.depth }

// Size returns the number of balancers.
func (n *Network) Size() int { return len(n.nodes) }

// Node returns balancer i.
func (n *Network) Node(i int) *Node { return &n.nodes[i] }

// Layers returns the node ids of each layer, layer 1 first. The slices are
// shared; callers must not modify them.
func (n *Network) Layers() [][]int32 { return n.layers }

// Reset restores every balancer to its initial state. Not safe to call
// concurrently with traversals.
func (n *Network) Reset() {
	for i := range n.nodes {
		n.nodes[i].bal.Reset()
	}
}

// Traverse shepherds one token from input wire `wire` through the network
// and returns the output wire it exits on. Safe for concurrent use by any
// number of goroutines; each balancer crossing is a single atomic add.
func (n *Network) Traverse(wire int) int {
	ep := n.inputs[wire]
	for ep.node != External {
		nd := &n.nodes[ep.node]
		ep = nd.out[nd.bal.Step()]
	}
	return int(ep.port)
}

// TraverseAnti shepherds one antitoken (Fetch&Decrement traffic, ref [2])
// from input wire `wire` and returns the output wire it exits on.
func (n *Network) TraverseAnti(wire int) int {
	ep := n.inputs[wire]
	for ep.node != External {
		nd := &n.nodes[ep.node]
		ep = nd.out[nd.bal.StepAnti()]
	}
	return int(ep.port)
}

// TraverseStalls is Traverse with measured-contention instrumentation: for
// each balancer crossing it adds to *stalls the number of other tokens
// concurrently present at that balancer (the §1.2 stall measure, observed
// rather than adversarially scheduled).
func (n *Network) TraverseStalls(wire int, stalls *int64) int {
	ep := n.inputs[wire]
	for ep.node != External {
		nd := &n.nodes[ep.node]
		waiting := n.occ[ep.node].Add(1) - 1
		if waiting > 0 {
			atomic.AddInt64(stalls, waiting)
		}
		port := nd.bal.Step()
		n.occ[ep.node].Add(-1)
		ep = nd.out[port]
	}
	return int(ep.port)
}

// Quiescent computes the network's output sequence in the quiescent state
// reached after x[i] tokens have entered on each input wire i (§2.2: the
// output sequence depends only on these counts). It does not disturb the
// live balancer states; initial balancer states are honoured.
func (n *Network) Quiescent(x []int64) ([]int64, error) {
	if len(x) != n.inWidth {
		return nil, fmt.Errorf("network %s: input length %d, want %d", n.name, len(x), n.inWidth)
	}
	for i, v := range x {
		if v < 0 {
			return nil, fmt.Errorf("network %s: negative token count %d on wire %d", n.name, v, i)
		}
	}
	y := make([]int64, n.outWidth)
	in := make([]int64, len(n.nodes)) // accumulated input count per node
	route := func(ep endpoint, c int64) {
		if ep.node == External {
			y[ep.port] += c
		} else {
			in[ep.node] += c
		}
	}
	for i, v := range x {
		route(n.inputs[i], v)
	}
	// Nodes were created in topological order by the Builder.
	for i := range n.nodes {
		nd := &n.nodes[i]
		counts := balancer.Distribute(nd.bal.Init(), in[i], nd.Out())
		for p, c := range counts {
			if c != 0 {
				route(nd.out[p], c)
			}
		}
	}
	return y, nil
}

// TraceStep is a single balancer crossing in a token's path.
type TraceStep struct {
	Node int // balancer id
	Port int // output port taken
}

// TraverseObserve is Traverse with an observation callback invoked for
// every balancer crossing: the node id, the token's sequence index k at
// that balancer (it was the k-th token the balancer processed), and the
// exit port. The callback runs on the traversing goroutine; execution
// tracing builds on this hook.
func (n *Network) TraverseObserve(wire int, obs func(node int, k int64, port int)) int {
	ep := n.inputs[wire]
	for ep.node != External {
		nd := &n.nodes[ep.node]
		k, port := nd.bal.StepK()
		obs(int(ep.node), k, port)
		ep = nd.out[port]
	}
	return int(ep.port)
}

// TraverseTrace is Traverse that also records the token's full path. It is
// intended for tests and debugging, not hot paths.
func (n *Network) TraverseTrace(wire int) (int, []TraceStep) {
	var path []TraceStep
	ep := n.inputs[wire]
	for ep.node != External {
		nd := &n.nodes[ep.node]
		p := nd.bal.Step()
		path = append(path, TraceStep{Node: int(ep.node), Port: p})
		ep = nd.out[p]
	}
	return int(ep.port), path
}

// Wiring inspection -----------------------------------------------------

// InputDest returns, for network input wire i, the node id and input port
// it feeds; node == -1 means it connects straight to output wire port.
func (n *Network) InputDest(i int) (node, port int) {
	ep := n.inputs[i]
	return int(ep.node), int(ep.port)
}

// OutputSource returns, for network output wire i, the node id and output
// port feeding it; node == -1 means it is fed straight from input wire port.
func (n *Network) OutputSource(i int) (node, port int) {
	ep := n.sources[i]
	return int(ep.node), int(ep.port)
}

// Dest returns where output port p of node id leads: a (node, inPort) pair,
// or node == -1 and the network output wire index.
func (n *Network) Dest(id, p int) (node, port int) {
	ep := n.nodes[id].out[p]
	return int(ep.node), int(ep.port)
}

// Source returns what feeds input port p of node id: a (node, outPort)
// pair, or node == -1 and the network input wire index.
func (n *Network) Source(id, p int) (node, port int) {
	ep := n.nodes[id].in[p]
	return int(ep.node), int(ep.port)
}

// Label returns the block label assigned to node id ("" if none).
func (n *Network) Label(id int) string {
	if n.labels == nil {
		return ""
	}
	return n.labels[id]
}

// SetLabel assigns a block label (e.g. "Na", "Nb", "Nc") to node id.
func (n *Network) SetLabel(id int, label string) {
	if n.labels == nil {
		n.labels = make([]string, len(n.nodes))
	}
	n.labels[id] = label
}

// RandomizeInitialStates re-initializes every balancer in place with a
// uniformly random initial state drawn from rng and nothing processed (the
// Section 7 randomization ablation). A *balancer.PQ taken from Node before
// the call sees the new state. Not safe to call concurrently with
// traversals.
func (n *Network) RandomizeInitialStates(rng *rand.Rand) {
	for i := range n.nodes {
		nd := &n.nodes[i]
		nd.bal.Set(nd.In(), nd.Out(), rng.Int63n(int64(nd.Out())))
	}
}

// Builder ----------------------------------------------------------------

// Port is a dangling wire end produced by the Builder: either a network
// input wire or an output port of an already-created balancer. Each Port
// must be consumed exactly once (by Balancer or Finalize).
type Port struct {
	src endpoint
	b   *Builder
	seq int64 // creation sequence, for error messages
}

// dangling fills a wiring slot until its port is consumed; the slot then
// holds the consumer's endpoint.
var dangling = endpoint{node: External - 1, port: External - 1}

// proto is what the Builder records of a balancer; Finalize lays it out.
type proto struct {
	s0    int64
	p, q  int32
	outAt int32 // index of the node's first output port in Builder.outs
	depth int32
}

// Builder incrementally constructs a balancing network. Balancers must be
// created in dependency order (a balancer can only consume already-existing
// ports), which makes creation order a topological order.
//
// Wiring accumulates in flat slices, node after node, that Finalize hands
// to the Network as they are: ins holds each node's sources, outs its
// destinations (dangling until consumed), and inputs each input wire's
// consumer.
type Builder struct {
	name    string
	inWidth int
	protos  []proto
	ins     []endpoint
	outs    []endpoint
	inputs  []endpoint // nil once the builder is spent
	ports   []Port     // slab the Ports returned by BalancerInit are cut from
	seq     int64
	err     error
}

// NewBuilder starts a network with inWidth input wires.
func NewBuilder(name string, inWidth int) (*Builder, []Port) {
	b := &Builder{
		name:    name,
		inWidth: inWidth,
		inputs:  make([]endpoint, inWidth),
	}
	if inWidth < 1 {
		b.fail(fmt.Errorf("network %s: input width %d < 1", name, inWidth))
	}
	ports := make([]Port, inWidth)
	for i := range ports {
		b.inputs[i] = dangling
		ports[i] = Port{src: endpoint{node: External, port: int32(i)}, b: b}
	}
	return b, ports
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the first construction error, if any.
func (b *Builder) Err() error { return b.err }

// Balancer adds a (len(in), outWidth)-balancer consuming the given ports in
// order, and returns its output ports in order. A nil return indicates a
// construction error (recorded; surfaced by Finalize).
func (b *Builder) Balancer(in []Port, outWidth int) []Port {
	return b.BalancerInit(in, outWidth, 0)
}

// BalancerInit is Balancer with an explicit initial state s0.
func (b *Builder) BalancerInit(in []Port, outWidth int, s0 int64) []Port {
	if b.err != nil {
		return nil
	}
	if len(in) < 1 || outWidth < 1 {
		b.fail(fmt.Errorf("network %s: balancer widths (%d,%d) invalid", b.name, len(in), outWidth))
		return nil
	}
	id := int32(len(b.protos))
	depth := int32(0)
	for p, port := range in {
		if !b.consume(port, endpoint{node: id, port: int32(p)}) {
			return nil
		}
		b.ins = append(b.ins, port.src)
		if port.src.node != External {
			depth = max(depth, b.protos[port.src.node].depth)
		}
	}
	b.protos = append(b.protos, proto{
		s0: s0, p: int32(len(in)), q: int32(outWidth),
		outAt: int32(len(b.outs)), depth: depth + 1,
	})
	for range outWidth {
		b.outs = append(b.outs, dangling)
	}
	if cap(b.ports)-len(b.ports) < outWidth {
		b.ports = make([]Port, 0, max(256, outWidth))
	}
	at := len(b.ports)
	b.ports = b.ports[:at+outWidth]
	ports := b.ports[at : at+outWidth : at+outWidth]
	for p := range ports {
		b.seq++
		ports[p] = Port{src: endpoint{node: id, port: int32(p)}, b: b, seq: b.seq}
	}
	return ports
}

// consume records dest in the wiring slot of port p; false on error.
func (b *Builder) consume(p Port, dest endpoint) bool {
	if b.inputs == nil {
		b.fail(ErrSpent)
		return false
	}
	if p.b != b {
		b.fail(fmt.Errorf("network %s: port from a different builder", b.name))
		return false
	}
	var slot *endpoint
	if p.src.node == External {
		slot = &b.inputs[p.src.port]
	} else {
		slot = &b.outs[b.protos[p.src.node].outAt+p.src.port]
	}
	if *slot != dangling {
		b.fail(fmt.Errorf("network %s: port %v consumed twice", b.name, p.src))
		return false
	}
	*slot = dest
	return true
}

// Finalize declares the given ports to be the network's output wires, in
// order, validates that every port in the network was consumed exactly
// once, and returns the immutable Network. It lays the balancers out in
// one cache-line arena and gives each node views of the builder's flat
// wiring.
func (b *Builder) Finalize(outputs []Port) (*Network, error) {
	if b.inputs == nil {
		b.fail(ErrSpent)
	}
	if b.err == nil {
		for i, p := range outputs {
			b.consume(p, endpoint{node: External, port: int32(i)})
		}
	}
	if b.err != nil {
		return nil, b.err
	}
	// Completeness: every node output port and every network input must be
	// consumed.
	for i, ep := range b.inputs {
		if ep == dangling {
			return nil, fmt.Errorf("network %s: input wire %d left dangling", b.name, i)
		}
	}
	for id, pr := range b.protos {
		for p := range pr.q {
			if b.outs[pr.outAt+p] == dangling {
				return nil, fmt.Errorf("network %s: balancer %d output %d left dangling", b.name, id, p)
			}
		}
	}
	n := &Network{
		name:     b.name,
		inWidth:  b.inWidth,
		outWidth: len(outputs),
		nodes:    make([]Node, len(b.protos)),
		inputs:   b.inputs,
		sources:  make([]endpoint, len(outputs)),
		occ:      make([]atomic.Int64, len(b.protos)),
	}
	for i, p := range outputs {
		n.sources[i] = p.src
	}
	arena := newArena(len(b.protos))
	inAt := int32(0)
	for i, pr := range b.protos {
		bal := &arena[i].PQ
		bal.Set(int(pr.p), int(pr.q), pr.s0)
		n.nodes[i] = Node{
			bal:   bal,
			in:    b.ins[inAt : inAt+pr.p : inAt+pr.p],
			out:   b.outs[pr.outAt : pr.outAt+pr.q : pr.outAt+pr.q],
			depth: pr.depth,
			id:    int32(i),
		}
		inAt += pr.p
		n.depth = max(n.depth, int(pr.depth))
	}
	n.layers = layers(n.nodes, n.depth)
	*b = Builder{name: b.name} // spent: the Network owns the wiring now
	return n, nil
}

// layers groups node ids by depth, each group in id order, carving every
// group from one slice.
func layers(nodes []Node, depth int) [][]int32 {
	next := make([]int32, depth+1) // next free slot of each layer in ids
	for i := range nodes {
		next[nodes[i].depth]++
	}
	for d := 1; d <= depth; d++ {
		next[d] += next[d-1]
	}
	ids := make([]int32, len(nodes))
	for i := range nodes {
		d := nodes[i].depth - 1
		ids[next[d]] = int32(i)
		next[d]++
	}
	out := make([][]int32, depth)
	lo := int32(0)
	for d := range out {
		out[d] = ids[lo:next[d]:next[d]]
		lo = next[d]
	}
	return out
}

// ErrSpent is returned when a Builder is reused after Finalize.
var ErrSpent = errors.New("network: builder already finalized")

// lineSize is the cache-line size the balancer arena pads to.
const lineSize = 64

// line is one balancer padded to a whole cache line, so that no two
// balancers of a network share one: a token's atomic step never contends
// with a neighbouring balancer's.
type line struct {
	balancer.PQ
	_ [lineSize - unsafe.Sizeof(balancer.PQ{})]byte
}

// newArena returns n zeroed lines in one allocation, the first starting
// on a 64-byte boundary. A balancer holds no pointers, so the lines may
// start at any 8-byte offset into the allocation; one spare line absorbs
// the shift.
func newArena(n int) []line {
	buf := make([]line, n+1)
	shift := -uintptr(unsafe.Pointer(&buf[0])) & (lineSize - 1)
	return unsafe.Slice((*line)(unsafe.Add(unsafe.Pointer(&buf[0]), shift)), n)
}
