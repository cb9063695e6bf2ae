// Package distnet emulates a distributed implementation of a balancing
// network, standing in for the real-system experiments of refs [19,20] of
// the paper (10 Sun UltraSparc-10 workstations): each balancer runs as its
// own server goroutine owning its state; wires are channels; a token is a
// message routed hop by hop from an input wire to an output wire.
//
// The emulation preserves the distributed structure that produced the
// throughput results in [19,20] — a balancer is a remote shared object
// serializing one token at a time, a wire is a link with bounded capacity,
// and per-hop latency can be injected — while running on one machine.
//
// # Batched message protocol
//
// A message may carry a COUNT of k tokens (or antitokens) instead of a
// single token: a batch travels as a pipeline wavefront holding the
// per-balancer pending counts of the whole group. Each balancer server
// it visits applies its pending sub-group to its state with ONE
// transition (the StepN/StepAntiN split arithmetic: consecutive tokens
// take consecutive output wires round-robin), folds the split into the
// wavefront — so sub-groups that diverge re-merge at shared successors —
// and forwards the message to the next balancer with pending tokens in
// topological order. A batch of k tokens therefore crosses the network
// in exactly (balancers touched) ≤ min(size, k·depth) messages instead
// of k·depth, the distributed counterpart of network.TraverseBatch; the
// injector wakes when the wavefront has drained.
//
// # The deployment as a transport
//
// A Cluster is a running System plus its exit cells, seen as an
// xport.Link: a session's Inc is one single-token injection and a cell
// fetch, its Batch one wavefront and the cells it landed on, and its RPCs
// the link-level messages those injections caused. Everything a client
// stacks on top — coalescing concurrent Inc callers on one input wire into
// a shared flight, pooling, pid-striped fleets, /health, /metrics and
// /debug/flights — is the one xport implementation every transport shares;
// Counter is xport.Counter, and a fleet is xport.NewFleet over Clusters.
package distnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/balancer"
	"repro/internal/network"
	"repro/internal/wire"
	"repro/internal/xport"
)

// Config tunes the emulation.
type Config struct {
	// LinkBuffer is the channel capacity of each balancer's inbox
	// (default 1: a balancer accepts the next token while processing one).
	LinkBuffer int
	// HopLatency is an optional processing delay per balancer crossing,
	// emulating network round trips (0 for none). A batched message pays
	// it once for its whole group — that is the point of batching.
	HopLatency time.Duration
}

// System is a running distributed emulation of one balancing network.
// Create with Start; Stop it when done (all tokens must have exited).
type System struct {
	net     *network.Network
	inboxes []chan msg
	wg      sync.WaitGroup
	cfg     Config
	pool    sync.Pool    // of chan exit, for single-token replies
	msgs    atomic.Int64 // messages sent (injections + forwards)
	stopped bool
}

// msg is one link-level message: either a single token/antitoken with a
// direct reply channel (the latency path), or a batch wavefront.
type msg struct {
	anti bool      // antitoken traffic (Fetch&Decrement, ref [2])
	done chan exit // single-token reply
	msgs int64     // times this token has been sent so far
	bat  *batch    // batch wavefront, nil on the single path
}

// exit is a single token's reply: the output wire it left on and the
// link-level messages it took to get there — the per-injection bill a
// Cluster session reports as RPCs without a second shared counter.
type exit struct {
	wire int
	msgs int64
}

// batch is the state of one in-flight wavefront. It is owned exclusively
// by whichever server currently holds the message (channel handoff), so
// no field needs atomics.
type batch struct {
	pending []int64 // per balancer: tokens queued to cross it
	tally   []int64 // per network output wire: exits so far
	msgs    int64   // times the wavefront has been sent so far
	done    chan struct{}
}

// Start builds the server goroutines for the network. The network's
// balancer states are owned by the servers from now on via their own
// copies; the original network object is only read for topology.
func Start(net *network.Network, cfg Config) *System {
	if cfg.LinkBuffer < 1 {
		cfg.LinkBuffer = 1
	}
	s := &System{
		net:     net,
		inboxes: make([]chan msg, net.Size()),
		cfg:     cfg,
	}
	s.pool.New = func() any { return make(chan exit, 1) }
	for i := range s.inboxes {
		s.inboxes[i] = make(chan msg, cfg.LinkBuffer)
	}
	for i := 0; i < net.Size(); i++ {
		nd := net.Node(i)
		s.wg.Add(1)
		go s.serve(i, nd.Out(), nd.Balancer().Init())
	}
	return s
}

// send delivers a message to a balancer inbox, counting it on the system
// and on the token or wavefront itself (whose current holder is the sender).
func (s *System) send(node int, m msg) {
	s.msgs.Add(1)
	if m.bat != nil {
		m.bat.msgs++
	} else {
		m.msgs++
	}
	s.inboxes[node] <- m
}

// wireOf maps a (possibly negative) step index to an output wire.
func wireOf(idx int64, q int) int {
	w := idx % int64(q)
	if w < 0 {
		w += int64(q)
	}
	return int(w)
}

// serve is the balancer server loop: single-threaded ownership of the
// balancer state (state = init + net tokens processed), one message at a
// time. A single-token message costs one transition; a batched message
// applies its whole group with one transition and the StepN/StepAntiN
// split arithmetic, forwarding at most one message per output port
// (§1.2's atomic memory location, as a process instead).
func (s *System) serve(id, q int, init int64) {
	defer s.wg.Done()
	state := init
	var dist []int64
	for m := range s.inboxes[id] {
		if s.cfg.HopLatency > 0 {
			time.Sleep(s.cfg.HopLatency)
		}
		if m.bat == nil {
			// Single token/antitoken: the latency path.
			var idx int64
			if m.anti {
				state--
				idx = state
			} else {
				idx = state
				state++
			}
			next, nport := s.net.Dest(id, wireOf(idx, q))
			if next < 0 {
				m.done <- exit{wire: nport, msgs: m.msgs}
				continue
			}
			s.send(next, m)
			continue
		}
		// Batch wavefront: one state transition for this server's whole
		// pending sub-group, split folded back into the front.
		b := m.bat
		c := b.pending[id]
		b.pending[id] = 0
		var start int64
		if m.anti {
			state -= c
			start = state
		} else {
			start = state
			state += c
		}
		if cap(dist) < q {
			dist = make([]int64, q)
		}
		counts := balancer.DistributeInto(start, c, dist[:q])
		for p, cnt := range counts {
			if cnt == 0 {
				continue
			}
			next, nport := s.net.Dest(id, p)
			if next < 0 {
				b.tally[nport] += cnt
			} else {
				b.pending[next] += cnt
			}
		}
		// Hand the wavefront to the next balancer with pending tokens
		// (node ids are topological, so one forward pass drains it).
		forwarded := false
		for j := id + 1; j < len(b.pending); j++ {
			if b.pending[j] > 0 {
				s.send(j, m)
				forwarded = true
				break
			}
		}
		if !forwarded {
			close(b.done)
		}
	}
}

// Inject shepherds one token in on the given input wire and blocks until
// it exits, returning the output wire. Safe for concurrent use.
func (s *System) Inject(wire int) int { return s.inject(wire, false).wire }

// InjectAnti is Inject for one antitoken (Fetch&Decrement traffic).
func (s *System) InjectAnti(wire int) int { return s.inject(wire, true).wire }

func (s *System) inject(wire int, anti bool) exit {
	nd, port := s.net.InputDest(wire)
	if nd < 0 {
		return exit{wire: port}
	}
	done := s.pool.Get().(chan exit)
	s.send(nd, msg{anti: anti, done: done})
	out := <-done
	s.pool.Put(done)
	return out
}

// InjectBatch shepherds k tokens entering on input wire `wire` through
// the deployment as batched messages — at most one message per balancer
// touched instead of one per token per hop — blocking until every
// token has exited. It returns the number of tokens that exited on each
// output wire (entries sum to k). Safe for concurrent use with itself and
// with Inject; the quiescent guarantees are those of k single tokens.
//
// k = 0 returns all-zero counts; k < 0 panics.
func (s *System) InjectBatch(wire int, k int64) []int64 {
	out := make([]int64, s.net.OutWidth())
	s.injectBatch(wire, k, false, out)
	return out
}

// InjectAntiBatch is InjectBatch for k antitokens.
func (s *System) InjectAntiBatch(wire int, k int64) []int64 {
	out := make([]int64, s.net.OutWidth())
	s.injectBatch(wire, k, true, out)
	return out
}

// injectBatch adds the wavefront's exits to out and returns the messages
// it took.
func (s *System) injectBatch(wire int, k int64, anti bool, out []int64) int64 {
	if k < 0 {
		panic("distnet: InjectBatch of negative batch size")
	}
	if k == 0 {
		return 0
	}
	nd, port := s.net.InputDest(wire)
	if nd < 0 {
		out[port] += k
		return 0
	}
	b := &batch{
		pending: make([]int64, len(s.inboxes)),
		tally:   make([]int64, len(out)),
		done:    make(chan struct{}),
	}
	b.pending[nd] = k
	s.send(nd, msg{anti: anti, bat: b})
	<-b.done
	for i, v := range b.tally {
		out[i] += v
	}
	return b.msgs
}

// Messages returns the number of link-level messages sent so far
// (injections included) — the cost metric of the refs [19,20] deployments
// and the numerator of the E25 msgs-per-token tables.
func (s *System) Messages() int64 { return s.msgs.Load() }

// Stop shuts down all servers. All injected tokens must have exited.
func (s *System) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, ch := range s.inboxes {
		close(ch)
	}
	s.wg.Wait()
}

// Cluster is a running deployment — the System and the exit cells that
// turn exit wires into counter values, the full counter deployment of
// [19,20] — seen as the fourth xport.Link. Its sessions hold no state a
// fault could desync (a message is a channel send), so the link never
// fails: SetTape is a no-op and every session probes healthy.
type Cluster struct {
	sys   *System
	cells []cell
	t     int64
}

type cell struct {
	mu sync.Mutex
	v  int64
	_  [6]int64
}

// add moves the cell by delta and returns the value it held before.
func (cl *cell) add(delta int64) int64 {
	cl.mu.Lock()
	v := cl.v
	cl.v += delta
	cl.mu.Unlock()
	return v
}

// NewCluster starts a distributed deployment of the network with its
// exit cells at their initial values; Stop it when every counter over it
// has been closed.
func NewCluster(net *network.Network, cfg Config) *Cluster {
	c := &Cluster{
		sys:   Start(net, cfg),
		cells: make([]cell, net.OutWidth()),
		t:     int64(net.OutWidth()),
	}
	for i := range c.cells {
		c.cells[i].v = int64(i)
	}
	return c
}

// Transport implements xport.Link: the metrics label and /status
// discriminator.
func (c *Cluster) Transport() string { return "dist" }

// Addrs implements xport.Link. The emulation has no endpoints; /status
// shows the deployment's shape (servers, link buffer, hop latency) in
// their place.
func (c *Cluster) Addrs() []string { return []string{c.sys.String()} }

// InWidth implements xport.Link with the topology's input width.
func (c *Cluster) InWidth() int { return c.sys.net.InWidth() }

// OutWidth implements xport.Link with the topology's output width.
func (c *Cluster) OutWidth() int { return c.sys.net.OutWidth() }

// Topology names the deployed network, for fleet names and bench tables.
func (c *Cluster) Topology() string { return c.sys.net.Name() }

// Dial implements xport.Link. The client id is unused: with no failures
// there are no retries to deduplicate.
func (c *Cluster) Dial(uint64) (xport.Session, error) {
	return &session{c: c, tally: make([]int64, len(c.cells))}, nil
}

// RetryBudget implements xport.Link: no flight can fail, so there is
// nothing to budget.
func (c *Cluster) RetryBudget() time.Duration { return 0 }

// Stop shuts the deployment's servers down. Every operation must have
// returned.
func (c *Cluster) Stop() { c.sys.Stop() }

// Counter is the deployment-wide coalescing Fetch&Increment /
// Fetch&Decrement client: the shared transport-agnostic core (see
// xport.Counter) over the message-passing link. Its RPCs are the
// link-level messages of refs [19,20] — the numerator of the E25/E26
// msgs-per-token tables.
type Counter = xport.Counter

// NewCounter builds the coalescing counter client with the default pool
// width (one session slot per input wire).
func (c *Cluster) NewCounter() *Counter { return c.NewCounterPool(0) }

// NewCounterPool builds the coalescing counter client over a pool
// retaining at most width idle sessions (width <= 0 defaults to the
// input width) — the one shared implementation in xport.
func (c *Cluster) NewCounterPool(width int) *Counter {
	return xport.NewCounter(c, width)
}

// session is one pooled walker: it injects into the shared System and
// bills the messages its own injections caused.
type session struct {
	c     *Cluster
	rpcs  atomic.Int64 // read by scrapes while a flight adds to it
	tally []int64      // wavefront exit scratch, reused across batches
}

// Inc shepherds one token along the single-token latency path and
// claims the next value of the exit cell it lands on.
func (s *session) Inc(pid int) (int64, error) {
	out := s.c.sys.inject(pid%s.c.InWidth(), false)
	s.rpcs.Add(out.msgs)
	return s.c.cells[out.wire].add(s.c.t), nil
}

// Batch shepherds k tokens (anti: antitokens, ref [2]) as one wavefront
// and claims (revokes) a run of values on every exit cell it landed on;
// an antitoken batch returns each cell's most recent values first.
func (s *session) Batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	clear(s.tally)
	s.rpcs.Add(s.c.sys.injectBatch(in, k, anti, s.tally))
	t := s.c.t
	for i, cnt := range s.tally {
		if cnt == 0 {
			continue
		}
		if anti {
			end := s.c.cells[i].add(-t*cnt) - t*cnt
			for v := end + t*(cnt-1); v >= end; v -= t {
				dst = append(dst, v)
			}
		} else {
			v := s.c.cells[i].add(t * cnt)
			for j := int64(0); j < cnt; j++ {
				dst = append(dst, v+j*t)
			}
		}
	}
	return dst, nil
}

// Read sums the exit cells into the net count (increments minus
// decrements) locally — no messages. Only meaningful in a quiescent
// state, like counter.Network.Issued.
func (s *session) Read() (int64, error) {
	var total int64
	for i := range s.c.cells {
		// add(0): the cell's value, read under its lock.
		total += (s.c.cells[i].add(0) - int64(i)) / s.c.t
	}
	return total, nil
}

func (s *session) RPCs() int64           { return s.rpcs.Load() }
func (s *session) SetTape(*wire.SeqTape) {}
func (s *session) Healthy() bool         { return true }
func (s *session) Close()                {}

// String describes the deployment.
func (s *System) String() string {
	return fmt.Sprintf("distnet(%s: %d servers, buffer %d, latency %v)",
		s.net.Name(), len(s.inboxes), s.cfg.LinkBuffer, s.cfg.HopLatency)
}
