// Package xport is the transport-agnostic client core of the
// distributed deployments: the ONE implementation of everything a
// counting-network transport needs above its link layer. The coalescing
// single-flight Counter (concurrent Inc callers entering on the same
// input wire merge into one in-flight batched pipeline), the per-counter
// session pool with health-probed checkout and pool-wide eviction, the
// rewindable seq-tape retry loop under a RetryPolicy+Backoff budget, the
// pid-striped ShardedCounter fleet composition (NewFleet, over any list
// of deployments), the drain/ErrClosed shutdown semantics and the
// ctlplane Source registrations all live here, written once —
// internal/tcpnet, internal/udpnet, internal/inproc and
// internal/distnet are thin link adapters underneath.
//
// The seam is two small interfaces. A Link is a client-side view of one
// deployment that can dial sessions under a client id; a Session is a
// single-goroutine protocol walker the pool checks in and out. The
// exactly-once machinery (HELLO client ids, seq-numbered v2 frames,
// dedup windows, the rewindable tape) lives in internal/wire and is
// shared by every transport's frames, so the Counter's retry loop —
// rewind the tape, re-run the operation on a fresh session, let the
// shards replay already-applied sequences — is correct for any Link
// whose sessions draw their sequence numbers from the tape.
//
// Adding a transport therefore means implementing Link+Session over the
// new medium (framing for a stream, packing for datagrams, streams for
// QUIC) and nothing else: the conformance suite in internal/conformance
// asserts the chaos exact-count, exactly-once replay, close/drain and
// frame-bill invariants against every registered transport through this
// package alone.
package xport

import (
	"errors"
	"time"

	"repro/internal/wire"
)

// ErrClosed is returned by Counter operations — including callers pooled
// in a coalescing window — once Close has been called. Callers never see
// a raw link error caused by their own Counter shutting down. Every
// transport's exported ErrClosed aliases this one sentinel, so
// errors.Is works across the seam.
var ErrClosed = errors.New("countnet: counter closed")

// Default flight-retry bounds, the single source of truth for every
// transport: a failed flight is re-run on fresh sessions up to
// DefaultRetryAttempts total tries, the redials paced by
// DefaultRetryBackoff. The time budget is the one knob that is genuinely
// per-transport (a TCP redial fails in milliseconds; a UDP flight only
// fails after its whole retransmit budget drained), so it comes from
// Link.RetryBudget instead of a constant here.
const DefaultRetryAttempts = 4

// DefaultRetryBackoff paces redials between retry attempts: jittered
// exponential from 2ms, capped at 250ms. Without it every Counter that
// watched the same shard flap redials in lockstep — a dial storm.
var DefaultRetryBackoff = wire.Backoff{Base: 2 * time.Millisecond, Max: 250 * time.Millisecond}

// Session is one checked-out protocol walker: a single-goroutine client
// holding whatever per-shard state its transport needs (one TCP
// connection per shard, one UDP socket per shard, one pinned dedup
// binding per in-memory shard). The pool serializes use — a session is
// held by at most one flight at a time.
type Session interface {
	// Inc shepherds one token through the network and returns its
	// counter value.
	Inc(pid int) (int64, error)
	// Batch shepherds k tokens (anti=false) or antitokens (anti=true)
	// entering on input wire `in` as one batched pipeline, appending the
	// k claimed (or revoked) values to dst. The walk must be
	// deterministic in (in, k, anti) so a retried flight re-sends the
	// identical frame sequence.
	Batch(in int, k int64, anti bool, dst []int64) ([]int64, error)
	// Read sums the exit cells into the deployment's quiescent net
	// count without mutating them.
	Read() (int64, error)
	// RPCs returns the request frames this session has sent — the
	// shared per-frame cost unit (E25–E28); lossy transports count
	// retransmitted copies, the message-passing emulation counts
	// link-level messages.
	RPCs() int64
	// SetTape points the session's mutating-frame sequence source at a
	// flight's rewindable tape (nil restores the session's own
	// counter). Called by the pool around every flight attempt.
	SetTape(*wire.SeqTape)
	// Healthy probes the session without a round trip; the pool evicts
	// sessions that fail it at checkout. Transports whose sessions
	// cannot go stale (a UDP socket has no peer state) return true.
	Healthy() bool
	// Close releases the session's link resources.
	Close()
}

// PacketSession is the optional datagram extension of Session: the
// link-level cost counters only a packet transport pays. The pool folds
// them into the Counter's monotone Packets/Retransmits totals when the
// sessions implement it; stream transports simply don't.
type PacketSession interface {
	Session
	// Packets returns request datagrams sent, first sends plus
	// retransmits.
	Packets() int64
	// Retransmits returns how many of those were retransmissions.
	Retransmits() int64
	// Outstanding returns request datagrams currently in flight.
	Outstanding() int64
}

// Link is the transport seam: the client-side view of one deployment
// (topology + shard endpoints) that the Counter core drives. Implement
// it plus Session and the whole coalescing/pooling/retry/striping stack
// above comes for free.
type Link interface {
	// Transport names the link type ("tcp", "udp", "inproc", "dist") —
	// the metrics label and /status discriminator.
	Transport() string
	// Addrs returns the shard endpoints, for /status.
	Addrs() []string
	// InWidth and OutWidth are the deployment topology's widths: the
	// coalescing comb count and the Read stride respectively.
	InWidth() int
	OutWidth() int
	// Dial opens a session announcing the given client id; pooled
	// sessions of one Counter share the Counter's id, which is what
	// lets a retry on a fresh session hit the original attempt's dedup
	// records.
	Dial(client uint64) (Session, error)
	// RetryBudget is the transport's default flight-retry time budget
	// (see SetRetryPolicy): how long after the first failure retries
	// keep being attempted. TCP redials fail fast (2s); a UDP flight
	// failure already consumed a retransmit budget (8s).
	RetryBudget() time.Duration
}
