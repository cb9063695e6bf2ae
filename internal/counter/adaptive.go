package counter

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
)

// Adaptive is the Section 7 "future work" counter (in the spirit of
// Tirthapura's adaptive counting networks, ref [27] of the paper): it
// serves increments from a central atomic word while contention is low —
// minimal latency — and migrates to a counting network when measured
// per-operation latency (a proxy for contention) crosses a threshold,
// migrating back when load subsides. Values stay globally unique and
// dense across migrations: each epoch's implementation continues the value
// range where the previous one stopped.
//
// Network epochs batch: increments are served through a Batched counter
// whose batch size is learned from the network's observed batching
// crossover (LearnBatch, once per Adaptive) rather than a fixed constant.
// Values a network epoch claimed but had not yet handed out when the
// counter migrated back are spilled and served first afterwards, so the
// value range stays dense (though not in issue order) across migrations.
//
// The density contract is therefore about CLAIMED values, not returned
// ones: in a quiescent state the values Inc has returned, together with
// those Outstanding reports (prefetched by the current network epoch or
// spilled by an earlier one, waiting to be handed out), are exactly
// [0, issued), each once. The returned values alone are dense only when
// Outstanding is empty — always so with batching off.
type Adaptive struct {
	mu   sync.RWMutex
	mode int32 // 0 = central, 1 = network (guarded by mu)

	central   atomic.Int64 // next value in central mode
	netCtr    *Network     // active network counter in network mode
	netBat    *Batched     // batching front-end over netCtr (nil if disabled)
	buildNet  func() (*network.Network, error)
	batchCfg  int // configured batch: 0 learn, <0 off, >0 fixed
	batch     int // resolved batch size once learned
	switching atomic.Bool

	// Values claimed by a network epoch but unconsumed at migration time;
	// served ahead of the active implementation until drained.
	spillMu   sync.Mutex
	spill     []int64
	spillLeft atomic.Int64

	// Latency sampling: every sampleEvery-th operation is timed and folded
	// into an EWMA (stored as nanoseconds).
	ops        atomic.Uint64
	ewmaNanos  atomic.Int64
	upNanos    int64
	downNanos  int64
	minEpoch   int64 // minimum operations between migrations
	epochStart atomic.Uint64
	migrations atomic.Int64
}

// AdaptiveConfig tunes migration behaviour.
type AdaptiveConfig struct {
	// BuildNetwork constructs a fresh counting network for each network
	// epoch (networks cannot be reused across epochs because balancer
	// state encodes the old base).
	BuildNetwork func() (*network.Network, error)
	// UpLatency is the sampled-latency EWMA above which the counter
	// migrates central -> network. Default 2µs.
	UpLatency time.Duration
	// DownLatency is the EWMA below which it migrates back. Default 250ns.
	DownLatency time.Duration
	// MinEpochOps is the minimum number of operations between migrations
	// (hysteresis). Default 4096.
	MinEpochOps int64
	// Batch sets the network-epoch batch size: 0 (the default) learns it
	// from the network's observed batching crossover at the first network
	// migration (LearnBatch); > 0 fixes it; < 0 disables batching and
	// serves network epochs token-at-a-time (values then stay in issue
	// order across migrations).
	Batch int
}

// NewAdaptive creates an adaptive counter starting in central mode.
func NewAdaptive(cfg AdaptiveConfig) *Adaptive {
	a := &Adaptive{
		buildNet:  cfg.BuildNetwork,
		upNanos:   int64(cfg.UpLatency),
		downNanos: int64(cfg.DownLatency),
		minEpoch:  cfg.MinEpochOps,
		batchCfg:  cfg.Batch,
	}
	if a.upNanos <= 0 {
		a.upNanos = 2000
	}
	if a.downNanos <= 0 {
		a.downNanos = 250
	}
	if a.minEpoch <= 0 {
		a.minEpoch = 4096
	}
	return a
}

// Name implements Counter.
func (a *Adaptive) Name() string { return "adaptive" }

// Mode returns "central" or "network".
func (a *Adaptive) Mode() string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.mode == 0 {
		return "central"
	}
	return "network"
}

// Migrations returns the number of mode switches performed.
func (a *Adaptive) Migrations() int64 { return a.migrations.Load() }

const sampleMask = 63 // time every 64th operation

// Inc implements Counter.
func (a *Adaptive) Inc(pid int) int64 {
	n := a.ops.Add(1)
	if n&sampleMask != 0 {
		return a.incFast(pid)
	}
	start := time.Now()
	v := a.incFast(pid)
	lat := time.Since(start).Nanoseconds()
	// EWMA with alpha = 1/8.
	old := a.ewmaNanos.Load()
	a.ewmaNanos.Store(old + (lat-old)/8)
	a.maybeMigrate(n)
	return v
}

func (a *Adaptive) incFast(pid int) int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	// One atomic load when the spill is empty, the common case.
	if a.spillLeft.Load() > 0 {
		if v, ok := a.popSpill(); ok {
			return v
		}
	}
	if a.mode == 0 {
		return a.central.Add(1) - 1
	}
	if a.netBat != nil {
		return a.netBat.Inc(pid)
	}
	return a.netCtr.Inc(pid)
}

// popSpill hands out one value spilled by a finished network epoch.
func (a *Adaptive) popSpill() (int64, bool) {
	a.spillMu.Lock()
	defer a.spillMu.Unlock()
	n := len(a.spill)
	if n == 0 {
		return 0, false
	}
	v := a.spill[n-1]
	a.spill = a.spill[:n-1]
	a.spillLeft.Add(-1)
	return v, true
}

// maybeMigrate checks thresholds and hysteresis and performs a migration
// if warranted. Only one migration runs at a time.
func (a *Adaptive) maybeMigrate(opCount uint64) {
	if a.buildNet == nil {
		return
	}
	if opCount-a.epochStart.Load() < uint64(a.minEpoch) {
		return
	}
	ewma := a.ewmaNanos.Load()
	a.mu.RLock()
	mode := a.mode
	a.mu.RUnlock()
	var target int32
	switch {
	case mode == 0 && ewma > a.upNanos:
		target = 1
	case mode == 1 && ewma < a.downNanos:
		target = 0
	default:
		return
	}
	if !a.switching.CompareAndSwap(false, true) {
		return
	}
	defer a.switching.Store(false)
	a.migrate(target)
}

// migrate switches modes under the exclusive lock, carrying the value
// range forward so values remain dense. The expensive preparation — the
// epoch's network build and the one-time batching-crossover probe — runs
// BEFORE the exclusive section, so in-flight Inc callers keep serving in
// the old mode instead of stalling behind a multi-millisecond probe.
func (a *Adaptive) migrate(target int32) {
	var net *network.Network
	learned := 0
	if target == 1 {
		if a.buildNet == nil {
			return
		}
		n, err := a.buildNet()
		if err != nil {
			return // stay in the current mode
		}
		net = n
		if a.batchCfg == 0 && a.Batch() == 0 {
			// Probe the (still untraversed) epoch network's clone now;
			// published under the lock only if nobody beat us to it.
			learned = LearnBatch(net)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mode == target {
		return
	}
	var issued int64
	if a.mode == 0 {
		issued = a.central.Load()
	} else {
		// Issued counts every value the epoch claimed from the network,
		// the buffered-but-unreturned ones included.
		issued = a.netCtr.base + a.netCtr.Issued()
	}
	// A network epoch leaves its buffered values behind; spill them so
	// they are handed out ahead of the next implementation and the value
	// range stays dense.
	if a.mode == 1 && a.netBat != nil {
		a.spillMu.Lock()
		a.spill = a.netBat.DrainBuffered(a.spill)
		a.spillLeft.Store(int64(len(a.spill)))
		a.spillMu.Unlock()
	}
	if target == 1 {
		a.netCtr = NewNetworkBase(net, issued)
		a.netBat = nil
		if a.batchCfg >= 0 {
			if a.batch == 0 {
				switch {
				case a.batchCfg > 0:
					a.batch = a.batchCfg
				case learned > 0:
					a.batch = learned
				default:
					// A concurrent migration raced us past the pre-lock
					// probe check and then rolled back; fall back to the
					// structural estimate rather than probing under lock.
					a.batch = HeuristicBatch(net)
				}
			}
			a.netBat = NewBatched(a.netCtr, a.batch)
		}
	} else {
		a.central.Store(issued)
		a.netCtr = nil
		a.netBat = nil
	}
	a.mode = target
	a.epochStart.Store(a.ops.Load())
	a.migrations.Add(1)
}

// Outstanding appends the values claimed from the value range but not yet
// returned by any Inc — the current network epoch's prefetched buffers
// plus the spill of earlier ones — to dst and returns it. It excludes
// concurrent Inc and migration while it reads, and hands nothing out.
func (a *Adaptive) Outstanding(dst []int64) []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spillMu.Lock()
	dst = append(dst, a.spill...)
	a.spillMu.Unlock()
	if a.netBat != nil {
		dst = a.netBat.appendBuffered(dst)
	}
	return dst
}

// Batch returns the resolved network-epoch batch size (0 until the first
// network migration when learning is configured; 1 means batching off).
func (a *Adaptive) Batch() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.batchCfg < 0 {
		return 1
	}
	return a.batch
}

// ForceMode migrates immediately to "central" or "network" (testing and
// operational override). It blocks until in-flight operations drain.
func (a *Adaptive) ForceMode(mode string) {
	var target int32
	if mode == "network" {
		target = 1
	}
	a.migrate(target)
}
