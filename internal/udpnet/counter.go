package udpnet

import (
	"time"

	"repro/internal/ctlplane"
	"repro/internal/wire"
	"repro/internal/xport"
)

// ErrClosed is returned by Counter operations — including callers pooled
// in a coalescing window — once Close has been called. It is the shared
// xport sentinel, so errors.Is matches across transports.
var ErrClosed = xport.ErrClosed

// Default flight-retry budget: a flight whose exchanges exhausted their
// retransmit budget (a shard unreachable for seconds, not a lost
// packet) is re-run on fresh sessions up to DefaultRetryAttempts total
// tries within DefaultRetryBudget of the first failure, paced by
// DefaultRetryBackoff. The retry re-draws the identical sequence
// numbers from the flight's tape, so whatever the dead attempts already
// applied is replayed, not re-executed. Attempts and backoff are the
// shared xport defaults; the budget is the UDP-specific value the
// Cluster link advertises — wide, because a flight only fails after a
// whole retransmit budget drained.
const (
	DefaultRetryAttempts = xport.DefaultRetryAttempts
	DefaultRetryBudget   = 8 * time.Second
)

// DefaultRetryBackoff paces the pause between flight retries (jittered
// exponential — the shared xport schedule).
var DefaultRetryBackoff = xport.DefaultRetryBackoff

// Counter is the cluster-wide coalescing Fetch&Increment client: the
// shared transport-agnostic core (see xport.Counter) running over this
// package's datagram link. Packet loss inside the retransmit budget
// never reaches the flight layer; values stay dense through any
// absorbed loss, duplication or reordering.
type Counter = xport.Counter

// CounterStatus is a pooled counter client's /status document.
type CounterStatus = xport.CounterStatus

// --- xport.Link adapter -------------------------------------------------

// Transport implements xport.Link: the metrics label and /status
// discriminator.
func (c *Cluster) Transport() string { return "udp" }

// Addrs implements xport.Link with a copy of the shard addresses.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// InWidth implements xport.Link with the topology's input width.
func (c *Cluster) InWidth() int { return c.net.InWidth() }

// OutWidth implements xport.Link with the topology's output width.
func (c *Cluster) OutWidth() int { return c.net.OutWidth() }

// Topology names the deployed network, for fleet names (xport.NewFleet).
func (c *Cluster) Topology() string { return c.net.Name() }

// Dial implements xport.Link: a session announcing the given client id
// in every packet it sends.
func (c *Cluster) Dial(client uint64) (xport.Session, error) {
	return c.newSession(client)
}

// RetryBudget implements xport.Link: a UDP flight failure already
// consumed a whole per-exchange retransmit budget, so the flight-level
// window is wide.
func (c *Cluster) RetryBudget() time.Duration { return DefaultRetryBudget }

// NewCounter builds the coalescing counter client for the cluster with
// the default pool width (one session slot per input wire).
func (c *Cluster) NewCounter() *Counter { return c.NewCounterPool(0) }

// NewCounterPool builds the coalescing counter client over a session
// pool retaining at most width idle sessions (width <= 0 defaults to
// the input width). Flights check sessions out round-robin; bursts
// beyond the width open extra sockets that are retired on return. The
// counter owns a fresh client id that every pooled session announces in
// every packet, keying its exactly-once dedup windows on the shards.
//
// On top of the shared client metrics the xport core registers, the
// datagram extras only UDP pays are registered here: packets and
// retransmits (the E28 retransmit-rate pair), the configured pipeline
// depth, and the outstanding-packets gauge.
func (c *Cluster) NewCounterPool(width int) *Counter {
	ctr := xport.NewCounter(c, width)
	labels := []ctlplane.Label{{Key: "transport", Value: "udp"}}
	reg := ctr.Registry()
	reg.Counter(wire.MetricClientPackets, wire.HelpClientPackets, ctr.Packets, labels...)
	reg.Counter(wire.MetricClientRetransmits, wire.HelpClientRetransmits, ctr.Retransmits, labels...)
	reg.Gauge(wire.MetricClientPipelineDepth, wire.HelpClientPipelineDepth, func() int64 {
		return int64(c.Pipeline())
	}, labels...)
	reg.Gauge(wire.MetricClientOutstanding, wire.HelpClientOutstanding, ctr.Outstanding, labels...)
	return ctr
}
