package counter

import (
	"fmt"
	"runtime"
	"sync"
)

// DefaultBatch is the floor of the learned batch size (see LearnBatch);
// it is no longer the default itself — NewBatched with batch <= 0 learns
// the size from the observed crossover instead of this constant. At or
// above the network width a whole batch usually touches every balancer at
// most once, so the amortized cost per value approaches size/k + depth
// atomic operations instead of depth.
const DefaultBatch = 16

// IncBatch performs k Fetch&Increment operations as a single batched
// network traversal (network.TraverseBatch: one atomic fetch-add per
// balancer touched instead of one per token per balancer), appends the k
// claimed values to dst and returns it. The values are exactly those k
// successive Inc calls entering on the same wire could have received; in
// particular m batched operations in a quiescent period still claim a
// dense value range.
func (c *Network) IncBatch(pid int, k int, dst []int64) []int64 {
	if k <= 0 {
		return dst
	}
	p, _ := c.tallyPool.Get().(*[]int64)
	if p == nil {
		s := make([]int64, c.t)
		p = &s
	} else {
		clear(*p)
	}
	tally := c.net.TraverseBatchInto(pid%c.w, int64(k), *p)
	for i, cnt := range tally {
		if cnt == 0 {
			continue
		}
		end := c.cells[i].v.Add(c.t * cnt)
		for v := end - c.t*cnt; v < end; v += c.t {
			dst = append(dst, v)
		}
	}
	c.tallyPool.Put(p)
	return dst
}

// DecBatch performs k Fetch&Decrement operations as a single batched
// antitoken traversal (network.TraverseAntiBatch), appends the k revoked
// values to dst and returns it — the symmetric counterpart of IncBatch.
// The values are exactly those k successive Dec calls entering on the
// same wire could have returned: each exit cell yields the most recently
// issued values of its residue class, newest first. In quiescent
// alternation IncBatch(k);DecBatch(k) is the identity on the counter
// state and revokes exactly the values the IncBatch claimed.
func (c *Network) DecBatch(pid int, k int, dst []int64) []int64 {
	if k <= 0 {
		return dst
	}
	p, _ := c.tallyPool.Get().(*[]int64)
	if p == nil {
		s := make([]int64, c.t)
		p = &s
	} else {
		clear(*p)
	}
	tally := c.net.TraverseAntiBatchInto(pid%c.w, int64(k), *p)
	for i, cnt := range tally {
		if cnt == 0 {
			continue
		}
		end := c.cells[i].v.Add(-c.t * cnt)
		// cnt antitokens on cell i revoke the values end+ (cnt-1)·t down
		// to end, in revocation order newest-issued first.
		for v := end + c.t*(cnt-1); v >= end; v -= c.t {
			dst = append(dst, v)
		}
	}
	c.tallyPool.Put(p)
	return dst
}

// Batched turns batched traversal into a drop-in Counter: values are
// prefetched k at a time through IncBatch into per-stripe buffers, and
// each Inc pops one. Under load this amortizes a full network traversal
// (depth atomic operations) down to roughly (size/k + depth)/k atomics
// per Inc.
//
// The price is a weaker quiescent guarantee: values sitting unconsumed in
// stripe buffers have been claimed from the network but not yet handed
// out, so in a quiescent state the *claimed* values 0..m-1 are dense
// while the returned ones are a subset (m minus Buffered of them). Use it
// where a unique dense-ish ticket is needed at maximum throughput — id
// generation, load balancing — not where every claimed value must be
// observed.
type Batched struct {
	inner   *Network
	k       int
	stripes []valStripe
}

// valStripe is a padded buffer of prefetched values. The mutex is
// uncontended whenever distinct pids run on distinct stripes, which the
// stripe count makes likely.
type valStripe struct {
	mu   sync.Mutex
	vals []int64
	_    [4]int64
}

// NewBatched wraps a counting network in a batched counter with the given
// batch size (<= 0 learns it from the observed crossover, LearnBatch) and
// 2×GOMAXPROCS value stripes, so in a quiescent state Buffered is below
// 2×GOMAXPROCS×batch.
func NewBatched(net *Network, batch int) *Batched {
	return NewBatchedStripes(net, batch, 2*runtime.GOMAXPROCS(0))
}

// NewBatchedStripes is NewBatched with an explicit stripe count.
func NewBatchedStripes(net *Network, batch, stripes int) *Batched {
	if batch <= 0 {
		batch = LearnBatch(net.net)
	}
	if stripes < 1 {
		stripes = 1
	}
	return &Batched{inner: net, k: batch, stripes: make([]valStripe, stripes)}
}

// Batch returns the configured batch size.
func (b *Batched) Batch() int { return b.k }

// Name implements Counter.
func (b *Batched) Name() string {
	return fmt.Sprintf("batched%d:%s", b.k, b.inner.Name())
}

// Inc implements Counter: pop a prefetched value, refilling the stripe
// with one batched traversal when it runs dry.
func (b *Batched) Inc(pid int) int64 {
	s := &b.stripes[uint(pid)%uint(len(b.stripes))]
	s.mu.Lock()
	if len(s.vals) == 0 {
		s.vals = b.inner.IncBatch(pid, b.k, s.vals[:0])
	}
	v := s.vals[len(s.vals)-1]
	s.vals = s.vals[:len(s.vals)-1]
	s.mu.Unlock()
	return v
}

// DrainBuffered pops every claimed-but-unreturned value from the stripe
// buffers, appending them to dst, and returns it. Callers must exclude
// concurrent Inc (the adaptive counter drains under its migration lock).
func (b *Batched) DrainBuffered(dst []int64) []int64 {
	dst = b.appendBuffered(dst)
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		s.vals = s.vals[:0]
		s.mu.Unlock()
	}
	return dst
}

// appendBuffered copies every claimed-but-unreturned value onto dst
// without consuming it. Only a quiescent snapshot is meaningful.
func (b *Batched) appendBuffered(dst []int64) []int64 {
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		dst = append(dst, s.vals...)
		s.mu.Unlock()
	}
	return dst
}

// Buffered returns the number of claimed-but-unreturned values across all
// stripes. Only meaningful in a quiescent state.
func (b *Batched) Buffered() int64 {
	var total int64
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		total += int64(len(s.vals))
		s.mu.Unlock()
	}
	return total
}

// Issued returns the number of values claimed from the network, buffered
// ones included. Only meaningful in a quiescent state.
func (b *Batched) Issued() int64 { return b.inner.Issued() }
