package xport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/wire"
)

// Counter is a deployment-wide coalescing Fetch&Increment client over
// any Link: concurrent Inc callers entering on the same input wire merge
// into one in-flight batched pipeline (a single-flight window per wire),
// so wide workloads pay one pipeline per window rather than depth+1 round
// trips per token.
//
// Flights run on sessions checked out of a shared pool (round-robin,
// configurable width — see NewCounter) instead of one pinned session per
// wire. The pool self-heals twice over: idle sessions are health-probed
// at checkout (Session.Healthy, no round trip), so a long-dead link is
// evicted before a flight discovers it; and a session that fails
// mid-flight is evicted pool-wide (a partial frame may have desynced its
// streams) while the flight retries on fresh sessions under a bounded
// attempt/deadline budget (SetRetryPolicy). Retries are EXACTLY-ONCE:
// every pooled session announces the counter's client id, every
// mutating frame carries a sequence number recorded on the flight's
// tape, and a retry re-sends the identical (client, seq) pairs so the
// shards' dedup windows replay frames the dead session had already
// applied instead of re-executing them. Values stay dense through any
// absorbed link loss — no gaps, no duplicates.
type Counter struct {
	link  Link
	id    uint64        // client id every pooled session announces
	seqs  atomic.Uint64 // mutating-frame sequence source, shared by flights
	combs []comb
	pool  *pool

	mu          sync.Mutex
	closed      bool
	maxAttempts int
	budget      time.Duration
	backoff     wire.Backoff   // jittered redial pacing between attempts
	inflight    sync.WaitGroup // flights holding pool sessions
	free        []*scratch     // recycled flight scratch, at most pool.width

	// Control-plane state: a lifecycle word for /health (0 live,
	// 1 draining, 2 closed), bare atomics the flight and landing paths
	// bump, and the registry of read-side views /metrics evaluates.
	state        atomic.Int32
	flights      atomic.Int64
	retries      atomic.Int64
	inflightN    atomic.Int64
	windows      atomic.Int64
	windowTokens atomic.Int64
	reg          *ctlplane.Registry

	// Latency observability: lock-free log-bucketed histograms observed
	// on the flight path (an Observe sends no frame and allocates
	// nothing; the path as a whole is allocation-free in steady state
	// only, its scratch and windows being recycled) plus the bounded
	// ring of recent flights /debug/flights serves.
	histFlight   *ctlplane.Histogram // end-to-end flight latency
	histAttempt  *ctlplane.Histogram // per-attempt wire RTT
	histCoalesce *ctlplane.Histogram // Inc caller wait inside a window
	histCheckout *ctlplane.Histogram // pool checkout, probes + dials
	histAttempts *ctlplane.Histogram // tries per completed flight
	ring         *ctlplane.FlightRing
}

// flightMeta labels one flight for the /debug/flights ring: which
// operation, on which input wire (-1 for reads), moving how many
// tokens.
type flightMeta struct {
	op     string
	wire   int
	tokens int64
}

// flightStats accumulates what one flight actually cost across its
// attempts — filled by attempt(), recorded into the ring at landing.
type flightStats struct {
	attempts int
	rpcs     int64
	retrans  int64
}

// Counter lifecycle states (Counter.state).
const (
	stateLive     = 0
	stateDraining = 1
	stateClosed   = 2
)

// scratch is one flight's recyclable bookkeeping, owned exclusively
// from takeoff to landing: the rewindable tape (its recorded-seq slice
// kept at capacity) and the one-value buffer Dec lands in.
type scratch struct {
	tape *wire.SeqTape
	one  [1]int64
}

// comb is the per-input-wire coalescing state.
type comb struct {
	mu     sync.Mutex
	flying bool
	next   *cwindow
	spare  []*cwindow // recycled windows, at most maxSpareWindows
	_      [4]int64
}

// A wire in steady state has one window filling, one flying and one
// being read, so two spares cover it. A spare's vals is never longer
// than the callers that once parked in it, so it needs no bound.
const maxSpareWindows = 2

// cwindow is one pooled group of coalesced Inc calls. The lander arms
// refs with the caller count before waking them; the last caller to
// read its value hands the window back to the comb, and only then is
// landed re-armed — after every Wait of the previous round returned,
// which is the condition sync.WaitGroup sets for reuse.
type cwindow struct {
	k      int64
	vals   []int64
	err    error
	landed sync.WaitGroup
	refs   atomic.Int64
}

// join parks the caller in the wire's filling window (cb.mu is held on
// entry, released inside) until the window's flight has landed.
func (t *Counter) join(cb *comb) (int64, error) {
	w := cb.next
	if w == nil {
		if n := len(cb.spare); n > 0 {
			w, cb.spare = cb.spare[n-1], cb.spare[:n-1]
		} else {
			w = new(cwindow)
		}
		w.landed.Add(1)
		cb.next = w
	}
	idx := w.k
	w.k++
	cb.mu.Unlock()
	parked := time.Now()
	w.landed.Wait()
	t.histCoalesce.Observe(time.Since(parked).Nanoseconds())
	v, err := int64(0), w.err
	if err == nil {
		v = w.vals[idx]
	}
	if w.refs.Add(-1) == 0 {
		w.k, w.err = 0, nil
		cb.mu.Lock()
		if len(cb.spare) < maxSpareWindows {
			cb.spare = append(cb.spare, w)
		}
		cb.mu.Unlock()
	}
	return v, err
}

// NewCounter builds the coalescing counter client over a session pool
// retaining at most `width` idle sessions (width <= 0 defaults to the
// link's input width — one session slot per input wire, the resource
// envelope of the pre-pool one-session-per-wire clients). Flights check
// sessions out round-robin; bursts beyond the width dial extra sessions
// that are retired on return. The counter owns a fresh client id that
// every pooled session announces, keying its exactly-once dedup windows
// on the shards. The retry budget defaults to the link's RetryBudget;
// attempts and backoff to the shared xport defaults.
func NewCounter(link Link, width int) *Counter {
	id := wire.NextClientID()
	t := &Counter{
		link:        link,
		id:          id,
		combs:       make([]comb, link.InWidth()),
		pool:        newPool(link, width, id),
		maxAttempts: DefaultRetryAttempts,
		budget:      link.RetryBudget(),
		backoff:     DefaultRetryBackoff,
		reg:         ctlplane.NewRegistry(),

		histFlight:   ctlplane.NewLatencyHistogram(),
		histAttempt:  ctlplane.NewLatencyHistogram(),
		histCoalesce: ctlplane.NewLatencyHistogram(),
		histCheckout: ctlplane.NewLatencyHistogram(),
		histAttempts: ctlplane.NewHistogram(1, 1, 2, 3, 4, 6, 8, 12, 16),
		ring:         ctlplane.NewFlightRing(ctlplane.DefaultFlightEvents),
	}
	t.registerMetrics(link.Transport())
	return t
}

// registerMetrics wires the counter's read-side views into its
// registry; every closure reads atomics the operation paths maintain
// anyway, so a scrape never contends with a flight.
func (t *Counter) registerMetrics(transport string) {
	labels := []ctlplane.Label{{Key: "transport", Value: transport}}
	t.reg.Counter(wire.MetricClientRPCs, wire.HelpClientRPCs, t.RPCs, labels...)
	t.reg.Counter(wire.MetricClientFlights, wire.HelpClientFlights, t.flights.Load, labels...)
	t.reg.Counter(wire.MetricClientRetries, wire.HelpClientRetries, t.retries.Load, labels...)
	t.reg.Gauge(wire.MetricClientInflight, wire.HelpClientInflight, t.inflightN.Load, labels...)
	t.reg.Counter(wire.MetricClientWindows, wire.HelpClientWindows, t.windows.Load, labels...)
	t.reg.Counter(wire.MetricClientWindowTokens, wire.HelpClientWindowTokens, t.windowTokens.Load, labels...)
	t.reg.Counter(wire.MetricClientPoolCheckouts, wire.HelpClientPoolCheckouts, t.pool.checkouts.Load, labels...)
	t.reg.Counter(wire.MetricClientPoolDials, wire.HelpClientPoolDials, t.pool.dials.Load, labels...)
	t.reg.Counter(wire.MetricClientPoolEvictions, wire.HelpClientPoolEvictions, t.pool.evictions.Load, labels...)
	t.reg.Gauge(wire.MetricClientPoolIdle, wire.HelpClientPoolIdle, func() int64 {
		t.pool.mu.Lock()
		defer t.pool.mu.Unlock()
		return int64(len(t.pool.idle))
	}, labels...)
	t.reg.Histogram(wire.MetricClientFlightSeconds, wire.HelpClientFlightSeconds, t.histFlight, labels...)
	t.reg.Histogram(wire.MetricClientAttemptSeconds, wire.HelpClientAttemptSeconds, t.histAttempt, labels...)
	t.reg.Histogram(wire.MetricClientCoalesceSeconds, wire.HelpClientCoalesceSeconds, t.histCoalesce, labels...)
	t.reg.Histogram(wire.MetricClientCheckoutSeconds, wire.HelpClientCheckoutSeconds, t.histCheckout, labels...)
	t.reg.Histogram(wire.MetricClientFlightAttempts, wire.HelpClientFlightAttempts, t.histAttempts, labels...)
	t.reg.Gauge(wire.MetricClientFlightEvents, wire.HelpClientFlightEvents, func() int64 {
		return int64(t.ring.Len())
	}, labels...)
}

// Flights implements ctlplane.FlightSource: the last-N completed
// flights, newest first — what /debug/flights serves for this counter.
func (t *Counter) Flights() []ctlplane.FlightEvent { return t.ring.Events() }

// Registry exposes the counter's metric registry so a link adapter can
// register transport-specific extras (udpnet adds packet, retransmit,
// pipeline-depth and outstanding series) next to the shared client
// views. Registrations race Gather, so adapters register before the
// counter is handed out.
func (t *Counter) Registry() *ctlplane.Registry { return t.reg }

// CounterStatus is a pooled counter client's /status document.
type CounterStatus struct {
	Transport  string   `json:"transport"`
	State      string   `json:"state"` // live, draining, closed
	ClientID   uint64   `json:"client_id"`
	PoolWidth  int      `json:"pool_width"`
	InWidth    int      `json:"in_width"`
	OutWidth   int      `json:"out_width"`
	ShardAddrs []string `json:"shard_addrs"`
}

func stateName(s int32) string {
	switch s {
	case stateDraining:
		return "draining"
	case stateClosed:
		return "closed"
	}
	return "live"
}

// Health implements ctlplane.Source: live until Close starts draining
// (load balancers stop routing on the 503 this turns into), quiescent
// when no flight holds a pool session — the precondition for an
// exact-count Read.
func (t *Counter) Health() ctlplane.Health {
	st := t.state.Load()
	return ctlplane.Health{
		Live:      st == stateLive,
		Quiescent: t.inflightN.Load() == 0,
		Detail:    stateName(st),
	}
}

// Status implements ctlplane.Source with the counter's client-side
// topology: its exactly-once client id, pool width, and the shard
// addresses it fans out to.
func (t *Counter) Status() any {
	return CounterStatus{
		Transport:  t.link.Transport(),
		State:      stateName(t.state.Load()),
		ClientID:   t.id,
		PoolWidth:  t.pool.width,
		InWidth:    t.link.InWidth(),
		OutWidth:   t.link.OutWidth(),
		ShardAddrs: t.link.Addrs(),
	}
}

// Gather implements ctlplane.Source, evaluating the counter's
// registered metric views.
func (t *Counter) Gather() []ctlplane.Sample { return t.reg.Gather() }

// SetRetryPolicy bounds the self-healing path: a failed flight is
// retried on fresh sessions for at most `attempts` total tries
// (including the first), as long as the time since the first failure
// stays within `budget` (budget <= 0 removes the time bound; attempts
// are always enforced). attempts < 1 is clamped to 1, disabling
// retries. Applies to flights started after the call.
func (t *Counter) SetRetryPolicy(attempts int, budget time.Duration) {
	if attempts < 1 {
		attempts = 1
	}
	t.mu.Lock()
	t.maxAttempts = attempts
	t.budget = budget
	t.mu.Unlock()
}

// SetRetryBackoff replaces the jittered exponential schedule pacing the
// redials between retry attempts (the zero value restores the wire
// defaults). Applies to flights started after the call.
func (t *Counter) SetRetryBackoff(b wire.Backoff) {
	t.mu.Lock()
	t.backoff = b
	t.mu.Unlock()
}

// Inc returns the next counter value. A lone caller pays the single-token
// round trips; concurrent callers on the same wire coalesce.
func (t *Counter) Inc(pid int) (int64, error) {
	in := pid % t.link.InWidth()
	cb := &t.combs[in]
	cb.mu.Lock()
	if cb.flying {
		return t.join(cb)
	}
	cb.flying = true
	cb.mu.Unlock()
	var v int64
	err := t.flight(flightMeta{op: "inc", wire: in, tokens: 1}, func(sess Session, _ *scratch) error {
		var ferr error
		v, ferr = sess.Inc(pid)
		return ferr
	})
	t.land(cb, in)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// Dec revokes the counter's most recent increment on the antitoken's exit
// wire (a one-element batched pipeline on a pooled session).
func (t *Counter) Dec(pid int) (v int64, err error) {
	in := pid % t.link.InWidth()
	err = t.flight(flightMeta{op: "dec-batch", wire: in, tokens: 1}, func(sess Session, sc *scratch) error {
		vals, ferr := sess.Batch(in, 1, true, sc.one[:0])
		if ferr == nil {
			v = vals[0]
		}
		return ferr
	})
	return v, err
}

// IncBatch claims k values as one batched pipeline on a pooled session,
// with the same retry resilience as Inc.
func (t *Counter) IncBatch(pid, k int, dst []int64) ([]int64, error) {
	return t.batch(pid, k, false, dst)
}

// DecBatch revokes k values as one batched antitoken pipeline on a pooled
// session.
func (t *Counter) DecBatch(pid, k int, dst []int64) ([]int64, error) {
	return t.batch(pid, k, true, dst)
}

func (t *Counter) batch(pid, k int, anti bool, dst []int64) ([]int64, error) {
	if k <= 0 {
		return dst, nil
	}
	in := pid % t.link.InWidth()
	base := len(dst)
	op := "inc-batch"
	if anti {
		op = "dec-batch"
	}
	err := t.flight(flightMeta{op: op, wire: in, tokens: int64(k)}, func(sess Session, _ *scratch) error {
		var ferr error
		dst, ferr = sess.Batch(in, int64(k), anti, dst[:base])
		return ferr
	})
	if err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// Read returns the deployment's quiescent net count by summing the exit
// cells over a pooled session — the exact-count read side.
func (t *Counter) Read() (int64, error) {
	var total int64
	err := t.flight(flightMeta{op: "read", wire: -1}, func(sess Session, _ *scratch) error {
		var ferr error
		total, ferr = sess.Read()
		return ferr
	})
	return total, err
}

// flight runs one pooled operation: check a session out, run op, and on
// a link failure evict the session pool-wide and retry on fresh
// sessions under the counter's attempt/deadline budget — the transparent
// self-healing path. Sequence numbers are drawn through a tape so every
// retry re-sends the same (client, seq) pairs and the shards' dedup
// windows make the retry exactly-once; the tape comes emptied off the
// free list with the flight's scratch and goes back at landing (a burst
// wider than the pool makes its own and drops it). Close fails new
// flights with ErrClosed, waits for running ones, and a flight mid-retry
// observes it between attempts.
//
// Every completed flight lands in the latency histograms and the
// /debug/flights ring. Both are local atomics/mutexed memory — no
// frames, so the wire bill is bit-identical to the uninstrumented
// counter (pinned by the conformance frame-bill gate).
func (t *Counter) flight(meta flightMeta, op func(Session, *scratch) error) (err error) {
	var sc *scratch
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	attempts, budget, backoff := t.maxAttempts, t.budget, t.backoff
	if n := len(t.free); n > 0 {
		sc, t.free = t.free[n-1], t.free[:n-1]
	}
	t.inflight.Add(1)
	t.mu.Unlock()
	t.flights.Add(1)
	t.inflightN.Add(1)
	defer t.inflightN.Add(-1)
	defer t.inflight.Done()
	if sc == nil {
		sc = &scratch{tape: wire.NewSeqTape(&t.seqs)}
	}

	var fs flightStats
	start := time.Now()
	last := start // the latest clock reading: the start, then each attempt's end
	defer func() {
		d := last.Sub(start)
		t.histFlight.Observe(d.Nanoseconds())
		t.histAttempts.Observe(int64(fs.attempts))
		outcome := "ok"
		if err != nil {
			outcome = err.Error()
		}
		t.ring.Record(ctlplane.FlightEvent{
			Start:       start,
			DurationNs:  d.Nanoseconds(),
			Op:          meta.op,
			Wire:        meta.wire,
			Tokens:      meta.tokens,
			Attempts:    fs.attempts,
			RPCs:        fs.rpcs,
			Retransmits: fs.retrans,
			Outcome:     outcome,
		})
		sc.tape.Reset()
		t.mu.Lock()
		if len(t.free) < t.pool.width {
			t.free = append(t.free, sc)
		}
		t.mu.Unlock()
	}()

	var deadline time.Time
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			t.retries.Add(1)
		}
		fs.attempts = attempt
		last, err = t.attempt(op, sc, &fs, last)
		if err == nil || errors.Is(err, ErrClosed) {
			return err
		}
		// A window racing Close must observe it here and hand its
		// callers the sentinel, never a raw dial or link error from a
		// replacement session it was never going to get.
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if attempt >= attempts {
			return err
		}
		if budget > 0 {
			if deadline.IsZero() {
				deadline = last.Add(budget)
			} else if last.After(deadline) {
				return err
			}
		}
		// Jittered exponential pause before redialing, so a fleet of
		// counters that watched the same shard die does not storm it
		// back down the moment it returns.
		time.Sleep(backoff.Delay(attempt))
		last = time.Now()
	}
}

// attempt is one try of a flight, its checkout timed from t0; it
// returns the clock at its end, which on success is the flight's end.
func (t *Counter) attempt(op func(Session, *scratch) error, sc *scratch, fs *flightStats, t0 time.Time) (time.Time, error) {
	sess, err := t.pool.checkout()
	t1 := time.Now()
	t.histCheckout.Observe(t1.Sub(t0).Nanoseconds())
	if err != nil {
		return t1, err
	}
	rpcs0 := sess.RPCs()
	ps, isPacket := sess.(PacketSession)
	var retrans0 int64
	if isPacket {
		retrans0 = ps.Retransmits()
	}
	sc.tape.Rewind()
	sess.SetTape(sc.tape)
	err = op(sess, sc)
	t2 := time.Now()
	t.histAttempt.Observe(t2.Sub(t1).Nanoseconds())
	sess.SetTape(nil)
	// Bill the attempt while the session is still exclusively ours —
	// after checkin another flight may bump its counters.
	fs.rpcs += sess.RPCs() - rpcs0
	if isPacket {
		fs.retrans += ps.Retransmits() - retrans0
	}
	if err != nil {
		t.pool.evict(sess)
		return t2, err
	}
	t.pool.checkin(sess)
	return t2, nil
}

// land drains the windows that pooled up behind the owner's flight, one
// batched pipeline per window, then releases the wire. Windows stranded
// by Close fail with ErrClosed rather than a raw link error.
func (t *Counter) land(cb *comb, in int) {
	for {
		cb.mu.Lock()
		w := cb.next
		cb.next = nil
		if w == nil {
			cb.flying = false
			cb.mu.Unlock()
			return
		}
		cb.mu.Unlock()
		t.windows.Add(1)
		t.windowTokens.Add(w.k)
		w.err = t.flight(flightMeta{op: "window", wire: in, tokens: w.k}, func(sess Session, _ *scratch) error {
			var ferr error
			w.vals, ferr = sess.Batch(in, w.k, false, w.vals[:0])
			return ferr
		})
		w.refs.Store(w.k)
		w.landed.Done()
	}
}

// RPCs returns the total request frames performed across the counter's
// sessions, evicted and retired ones included — the count is monotone;
// divide by operations for the E25 msgs/op metric.
func (t *Counter) RPCs() int64 { return t.pool.rpcs() }

// Packets returns the total request datagrams sent across the counter's
// sessions (monotone through retirement); 0 on stream transports whose
// sessions are not PacketSessions.
func (t *Counter) Packets() int64 { return t.pool.packets() }

// Retransmits returns the total retransmitted datagrams across the
// counter's sessions (monotone); 0 on stream transports.
func (t *Counter) Retransmits() int64 { return t.pool.retransmits() }

// Outstanding returns the request datagrams currently in flight across
// the counter's live sessions — a gauge, so retired sessions (which by
// definition have nothing outstanding) contribute nothing.
func (t *Counter) Outstanding() int64 { return t.pool.outstanding() }

// PoolIdle snapshots the pool's idle sessions, head (next checkout)
// first — a test hook for fault injection on the exact session the next
// flight will use.
func (t *Counter) PoolIdle() []Session {
	t.pool.mu.Lock()
	defer t.pool.mu.Unlock()
	return append([]Session(nil), t.pool.idle...)
}

// PoolLive returns how many dialed sessions the pool currently tracks
// (idle plus checked out) — a test hook for eviction accounting.
func (t *Counter) PoolLive() int {
	t.pool.mu.Lock()
	defer t.pool.mu.Unlock()
	return len(t.pool.live)
}

// Close shuts the counter down: new flights (and windows stranded behind
// a closing flight) fail with ErrClosed, running flights are waited for,
// and every pooled session is then retired with its cost counters folded
// into the monotone totals. Idempotent.
func (t *Counter) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.state.Store(stateDraining)
	t.mu.Unlock()
	t.inflight.Wait()
	t.pool.close()
	t.state.Store(stateClosed)
}

// pool is the Counter's session pool: up to `width` idle sessions reused
// round-robin across flights, every dialed session announcing the
// counter's client id, every dialed session tracked in `live` so the
// cost bills stay monotone through eviction and retirement.
type pool struct {
	link   Link
	width  int
	id     uint64 // the owning Counter's client id
	mu     sync.Mutex
	idle   []Session
	live   map[Session]struct{}
	closed bool

	// Cost counters of retired sessions, folded in at retirement so the
	// exported totals stay monotone.
	lost        int64 // RPCs
	lostPackets int64
	lostRetrans int64

	// Control-plane counters: checkouts by flights, fresh dials, and
	// evictions (probe failures at checkout plus mid-flight deaths —
	// NOT retirements at the width cap or at close).
	checkouts atomic.Int64
	dials     atomic.Int64
	evictions atomic.Int64
}

func newPool(link Link, width int, id uint64) *pool {
	if width < 1 {
		width = link.InWidth()
	}
	return &pool{link: link, width: width, id: id, live: make(map[Session]struct{})}
}

// checkout hands the caller exclusive use of a session: the least
// recently returned idle one (round-robin across the pool) that passes
// the health probe, or a fresh dial when none is idle. A long-dead idle
// link is evicted here, at checkout, instead of being discovered by a
// flight — Session.Healthy is a local probe, not a round trip.
func (p *pool) checkout() (Session, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	for len(p.idle) > 0 {
		sess := p.idle[0]
		n := len(p.idle)
		copy(p.idle, p.idle[1:])
		p.idle[n-1] = nil // or the array keeps a retired session reachable
		p.idle = p.idle[:n-1]
		if sess.Healthy() {
			p.mu.Unlock()
			p.checkouts.Add(1)
			return sess, nil
		}
		p.evictions.Add(1)
		p.retireLocked(sess)
	}
	p.mu.Unlock()
	sess, err := p.link.Dial(p.id)
	if err != nil {
		return nil, err
	}
	p.dials.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		sess.Close()
		return nil, ErrClosed
	}
	p.live[sess] = struct{}{}
	p.mu.Unlock()
	p.checkouts.Add(1)
	return sess, nil
}

// checkin returns a healthy session to the idle list; beyond the pool
// width (or after close) it is retired instead.
func (p *pool) checkin(sess Session) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.width {
		p.idle = append(p.idle, sess)
		p.mu.Unlock()
		return
	}
	p.retireLocked(sess)
	p.mu.Unlock()
}

// evict retires a session that failed pool-wide: it leaves the live
// set, its cost counters fold into the monotone totals, and every
// future checkout gets a different (or freshly dialed) session.
func (p *pool) evict(sess Session) {
	p.evictions.Add(1)
	p.mu.Lock()
	p.retireLocked(sess)
	p.mu.Unlock()
}

func (p *pool) retireLocked(sess Session) {
	if _, ok := p.live[sess]; !ok {
		return
	}
	delete(p.live, sess)
	p.lost += sess.RPCs()
	if ps, ok := sess.(PacketSession); ok {
		p.lostPackets += ps.Packets()
		p.lostRetrans += ps.Retransmits()
	}
	sess.Close()
}

// rpcs returns the monotone request-frame total across live and retired
// sessions.
func (p *pool) rpcs() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.lost
	for sess := range p.live {
		total += sess.RPCs()
	}
	return total
}

// packets returns the monotone request-datagram total across live and
// retired sessions (0 for stream transports).
func (p *pool) packets() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.lostPackets
	for sess := range p.live {
		if ps, ok := sess.(PacketSession); ok {
			total += ps.Packets()
		}
	}
	return total
}

// retransmits returns the monotone retransmission total across live and
// retired sessions (0 for stream transports).
func (p *pool) retransmits() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.lostRetrans
	for sess := range p.live {
		if ps, ok := sess.(PacketSession); ok {
			total += ps.Retransmits()
		}
	}
	return total
}

// outstanding sums the in-flight datagrams over the live sessions — a
// gauge, not folded through retirement.
func (p *pool) outstanding() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for sess := range p.live {
		if ps, ok := sess.(PacketSession); ok {
			total += ps.Outstanding()
		}
	}
	return total
}

// close retires every idle session and marks the pool closed; sessions
// still checked out are retired by their flight's checkin. (Counter.Close
// waits for flights first, so by the time it closes the pool every
// session is idle.)
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	for _, sess := range p.idle {
		p.retireLocked(sess)
	}
	p.idle = nil
	p.mu.Unlock()
}
