package wire

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctlplane"
)

// Default dedup bounds: a shard remembers the (seq, reply) pairs of at
// most DefaultDedupWindow applied mutating frames per client, and
// tracks at most DefaultDedupClients clients (least-recently-registered
// unpinned client evicted first). The window is the replay horizon — a
// retry is answered from its record until a frame Window sequence
// numbers newer (or a multiple) has been applied, which a prompt
// bounded-budget retry stays far inside of; past it the retry is
// refused, not re-executed (see DedupEntry.Do).
const (
	DefaultDedupWindow  = 4096
	DefaultDedupClients = 1024
)

// DefaultDedupMinIdle is the default eviction idle guard: an unpinned
// client entry whose last binding is more recent than this is never
// evicted at the Clients cap (the table temporarily grows instead).
// Connectionless transports depend on it — a UDP client pins its entry
// only for the instant each packet is processed, so without the guard,
// churn from other clients could evict a live client's window between
// a lost response and its retransmit and the duplicate would
// re-execute. Ten seconds covers the default retransmit and retry
// budgets (2s / 8s) with margin while bounding worst-case growth past
// the cap to ten seconds' worth of registration churn; deployments
// that raise those budgets should raise MinIdle with them.
const DefaultDedupMinIdle = 10 * time.Second

// DedupConfig sizes a shard's exactly-once state: Window is the number
// of (seq, reply) records kept per client (whether a sequence was
// applied is remembered for 64 × Window sequence numbers), Clients the number of
// clients tracked, MinIdle the how-recently-bound guard protecting
// live-but-unpinned clients from cap eviction (negative disables it).
// Zero fields take the defaults, so the zero value is the production
// configuration.
//
// MaxIdle is the idle-age expiry bound: an UNPINNED client whose last
// binding is older than MaxIdle is expired (window reclaimed) on the
// next registration, whether or not the Clients cap is reached — the
// reclaim path for abandoned client ids on shards that track fewer
// clients than the cap, where LRU eviction alone would let their
// windows live forever. 0 (the default) disables age expiry; a
// positive MaxIdle below the effective MinIdle is clamped up to it,
// since the guard promises that recently-bound clients survive.
type DedupConfig struct {
	Window  int
	Clients int
	MinIdle time.Duration
	MaxIdle time.Duration
}

func (c DedupConfig) withDefaults() DedupConfig {
	if c.Window <= 0 {
		c.Window = DefaultDedupWindow
	}
	if c.Clients <= 0 {
		c.Clients = DefaultDedupClients
	}
	if c.MinIdle == 0 {
		c.MinIdle = DefaultDedupMinIdle
	} else if c.MinIdle < 0 {
		c.MinIdle = 0
	}
	if c.MaxIdle < 0 {
		c.MaxIdle = 0
	} else if c.MaxIdle > 0 && c.MaxIdle < c.MinIdle {
		c.MaxIdle = c.MinIdle
	}
	return c
}

// Dedup is one shard's per-client exactly-once table: bounded
// (seq, reply) windows keyed by client id, with LRU eviction of
// unpinned clients at the Clients cap.
type Dedup struct {
	cfg     DedupConfig
	mu      sync.Mutex
	clients map[uint64]*list.Element // client id -> LRU element (*DedupEntry)
	lru     list.List                // most recently registered first

	// Control-plane counters (see Stats / RegisterMetrics). records is
	// the live (seq, reply) occupancy across all windows; replays and
	// evictions are monotone. They are bare atomic adds on paths already
	// holding a lock, so the hot path pays nothing measurable.
	records     atomic.Int64
	replays     atomic.Int64
	evictions   atomic.Int64
	expirations atomic.Int64
}

// NewDedup builds an empty table with cfg's bounds (zero fields take
// the defaults).
func NewDedup(cfg DedupConfig) *Dedup {
	return &Dedup{cfg: cfg.withDefaults(), clients: make(map[uint64]*list.Element)}
}

// Config reports the table's effective (defaulted) bounds.
func (d *Dedup) Config() DedupConfig { return d.cfg }

// DedupEntry pairs a registered client id with its dedup window. refs
// counts the bindings currently holding the id (guarded by the table's
// mutex): while any is live the entry is pinned against LRU eviction,
// so registration churn from other clients can never push out the
// window a live client's retry depends on.
type DedupEntry struct {
	id       uint64
	tab      *Dedup // owning table, for the shared occupancy/replay counters
	refs     int
	lastBind time.Time // guarded by the table's mutex

	// The client's bounded exactly-once window, two rings indexed by
	// sequence number (see Do). ring[seq mod Window] holds the reply of
	// the newest applied frame of that residue class — the records the
	// gauge counts, used of them occupied. applied[(seq/64) mod Window]
	// holds one bit per sequence of a 64-sequence block: whether it was
	// applied, remembered dedupAppliedSpan times longer than its reply.
	// Both grow on demand, so an entry costs nothing until its client
	// sends a mutating frame.
	win     int
	wmu     sync.Mutex
	ring    []dedupSlot
	applied []dedupBlock
	used    int
}

// dedupSlot is one recorded (seq, reply) pair.
type dedupSlot struct {
	seq  uint64
	val  int64
	used bool
}

// dedupBlock is the applied bits of sequences 64*blk .. 64*blk+63. The
// zero value reads as block 0 with nothing applied, which is what an
// untouched position means.
type dedupBlock struct {
	blk  uint64
	bits uint64
}

// dedupAppliedSpan is how many windows of sequence numbers a client's
// applied bits cover: Window replies are kept, 64 × Window sequences are
// remembered as applied or not (one bit each).
const dedupAppliedSpan = 64

// Do is the exactly-once gate for one mutating frame. A sequence already
// applied is answered from its recorded reply; a sequence never applied
// runs exec exactly once and is recorded; and a sequence whose history is
// gone is REFUSED — (0, false), the caller drops the frame unanswered as
// it would a violation — never executed on a guess. History is gone in
// two ways: the reply of an applied sequence was overwritten (Window
// newer frames of its residue class later), or the applied bits of its
// block were (64 × Window sequences later).
//
// Both rings only ever replace a position's occupant with a NEWER one
// of the same residue class, so what a position holds decides the case
// exactly, under any arrival order: the same block with the bit set —
// applied; an older block, or the same block with the bit clear — never
// applied (applying it would have left the bit, or a newer block,
// behind); a newer block — unknown. The two horizons differ on purpose.
// A pooled client's flights share one id and one sequence source, so a
// frame held up for a few tens of milliseconds — a lost packet's
// retransmit, a descheduled worker — can land thousands of sequences
// behind its siblings without ever having been applied; refusing it
// would fail its operation for good (every retry re-sends the same
// sequence), so whether-applied is kept at a bit a sequence, 64 windows
// deep, and only replies are kept at Window.
//
// The lock spans lookup and execution so a retry racing the original
// frame (same client, two connections or two datagrams) cannot
// double-apply; exec is a single atomic word operation, so serializing
// a client's frames per shard here costs lock-handoff nanoseconds
// against microsecond round trips.
func (e *DedupEntry) Do(seq uint64, exec func() (int64, bool)) (int64, bool) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	win := uint64(e.win)
	i, blk, bit := int(seq%win), seq/64, uint64(1)<<(seq%64)
	b := int(blk % win)
	if b < len(e.applied) {
		switch a := e.applied[b]; {
		case a.blk > blk:
			return 0, false
		case a.blk == blk && a.bits&bit != 0:
			if i < len(e.ring) && e.ring[i].seq == seq {
				e.tab.replays.Add(1)
				return e.ring[i].val, true
			}
			return 0, false
		}
	}
	v, ok := exec()
	if !ok {
		return 0, false
	}
	if b >= 64 && cap(e.applied) < e.win {
		// Past its first 4096 sequences a client reserves the whole
		// window at once, so the serving path never reallocates the
		// ring again.
		e.applied = slices.Grow(e.applied, e.win-len(e.applied))
	}
	for len(e.applied) <= b {
		e.applied = append(e.applied, dedupBlock{})
	}
	if a := &e.applied[b]; a.blk < blk {
		*a = dedupBlock{blk: blk, bits: bit}
	} else {
		a.bits |= bit
	}
	for len(e.ring) <= i {
		e.ring = append(e.ring, dedupSlot{})
	}
	if sl := &e.ring[i]; !sl.used || sl.seq < seq {
		if !sl.used {
			e.used++
			e.tab.records.Add(1)
		}
		*sl = dedupSlot{seq: seq, val: v, used: true}
	}
	return v, true
}

// Bind returns (registering if needed) the dedup entry for a client id,
// pinning it until the matching Release. Bindings announcing the same
// id — a pooled counter's whole session fleet, including the fresh
// session a retry runs on, or every datagram a UDP client sends — share
// one window per shard, which is what makes retries exactly-once.
// Eviction at the Clients cap takes the least recently registered
// client that is both UNPINNED and idle for at least the MinIdle guard
// (a client that bound recently may be a datagram client mid-exchange
// whose pin lasted only one packet); if every tracked client is pinned
// or recently active the map grows past the cap until one goes idle.
func (d *Dedup) Bind(id uint64) *DedupEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	d.expireLocked(now)
	if el, ok := d.clients[id]; ok {
		e := el.Value.(*DedupEntry)
		e.refs++
		e.lastBind = now
		d.lru.MoveToFront(el)
		return e
	}
	if len(d.clients) >= d.cfg.Clients {
		// The LRU is ordered by last bind, so the first UNPINNED entry
		// from the back is also the oldest unpinned one: either it is
		// past the idle guard and gets evicted, or every unpinned entry
		// is younger still and the scan can stop — only pinned entries
		// (rare, bounded by live connections) are ever stepped over.
		for el := d.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*DedupEntry)
			if e.refs != 0 {
				continue
			}
			if now.Sub(e.lastBind) >= d.cfg.MinIdle {
				d.lru.Remove(el)
				delete(d.clients, e.id)
				// refs == 0 under the table mutex means no Do is running
				// (Do only happens between Bind and Release), so the
				// window length is stable here.
				d.records.Add(-int64(e.used))
				d.evictions.Add(1)
			}
			break
		}
	}
	e := &DedupEntry{id: id, tab: d, refs: 1, lastBind: now, win: d.cfg.Window}
	d.clients[id] = d.lru.PushFront(e)
	return e
}

// expireLocked reclaims UNPINNED clients idle past the MaxIdle bound —
// the age-expiry path for abandoned client ids, run on every
// registration under the table mutex. The LRU is ordered by last bind,
// so the scan walks expired entries from the back and stops at the
// first one young enough to keep; only pinned entries older than the
// bound (bounded by live bindings) are stepped over. MaxIdle >= the
// MinIdle guard by construction, so a client recent enough to be
// protected from cap eviction is never expired either.
func (d *Dedup) expireLocked(now time.Time) {
	if d.cfg.MaxIdle <= 0 {
		return
	}
	var next *list.Element
	for el := d.lru.Back(); el != nil; el = next {
		next = el.Prev()
		e := el.Value.(*DedupEntry)
		if now.Sub(e.lastBind) < d.cfg.MaxIdle {
			return
		}
		if e.refs != 0 {
			continue
		}
		d.lru.Remove(el)
		delete(d.clients, e.id)
		// refs == 0 under the table mutex means no Do is running, so
		// the window length is stable here.
		d.records.Add(-int64(e.used))
		d.expirations.Add(1)
	}
}

// Release unpins a dedup entry when its binding goes away (or rebinds
// to another id). The records stay until LRU eviction, so a retry that
// re-binds moments after its session died still finds them.
func (d *Dedup) Release(e *DedupEntry) {
	d.mu.Lock()
	e.refs--
	d.mu.Unlock()
}

// DedupStats is a point-in-time view of a table's exactly-once state —
// what the control plane scrapes. Replays and Evictions are monotone;
// the rest are levels.
type DedupStats struct {
	Clients     int           // client windows currently tracked
	Pinned      int           // of which pinned by a live binding
	Records     int64         // (seq, reply) records held across all windows
	Replays     int64         // frames answered from a record (absorbed duplicates)
	Evictions   int64         // client windows evicted at the Clients cap
	Expirations int64         // client windows expired by the MaxIdle age bound
	MinIdle     time.Duration // configured eviction idle guard
	MaxIdle     time.Duration // configured idle-age expiry bound (0 = disabled)
	OldestIdle  time.Duration // age of the least recently bound unpinned client
}

// Stats snapshots the table. It takes the registration mutex only (a
// scrape-time cost), never a window mutex, so it cannot delay a frame
// being deduplicated. OldestIdle is the operator's window-bloat signal:
// with MaxIdle unset, records never expire by AGE — only LRU eviction
// at the Clients cap reclaims them — so on a shard tracking fewer
// clients than the cap, an abandoned client's window lives forever and
// this age grows without bound; with MaxIdle set, registrations sweep
// such windows and the age stays under the bound.
func (d *Dedup) Stats() DedupStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DedupStats{
		Clients:     len(d.clients),
		Records:     d.records.Load(),
		Replays:     d.replays.Load(),
		Evictions:   d.evictions.Load(),
		Expirations: d.expirations.Load(),
		MinIdle:     d.cfg.MinIdle,
		MaxIdle:     d.cfg.MaxIdle,
	}
	now := time.Now()
	for el := d.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*DedupEntry)
		if e.refs != 0 {
			st.Pinned++
			continue
		}
		if st.OldestIdle == 0 {
			if age := now.Sub(e.lastBind); age > 0 {
				st.OldestIdle = age
			}
		}
	}
	return st
}

// RegisterMetrics exposes the table on a control-plane registry under
// the countnet_dedup_* names (OPERATIONS.md documents each). The
// closures call Stats at scrape time, so registration itself retains no
// state and the data path is untouched.
func (d *Dedup) RegisterMetrics(r *ctlplane.Registry, labels ...ctlplane.Label) {
	r.Gauge(MetricDedupClients, HelpDedupClients,
		func() int64 { return int64(d.Stats().Clients) }, labels...)
	r.Gauge(MetricDedupPinned, HelpDedupPinned,
		func() int64 { return int64(d.Stats().Pinned) }, labels...)
	r.Gauge(MetricDedupRecords, HelpDedupRecords,
		func() int64 { return d.records.Load() }, labels...)
	r.Counter(MetricDedupReplays, HelpDedupReplays,
		func() int64 { return d.replays.Load() }, labels...)
	r.Counter(MetricDedupEvictions, HelpDedupEvictions,
		func() int64 { return d.evictions.Load() }, labels...)
	r.Counter(MetricDedupExpirations, HelpDedupExpirations,
		func() int64 { return d.expirations.Load() }, labels...)
	r.Gauge(MetricDedupMinIdle, HelpDedupMinIdle,
		func() int64 { return int64(d.cfg.MinIdle / time.Second) }, labels...)
	r.Gauge(MetricDedupMaxIdle, HelpDedupMaxIdle,
		func() int64 { return int64(d.cfg.MaxIdle / time.Second) }, labels...)
	r.Gauge(MetricDedupOldestIdle, HelpDedupOldestIdle,
		func() int64 { return int64(d.Stats().OldestIdle / time.Second) }, labels...)
}
