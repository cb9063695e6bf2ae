package xport

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/shard"
	"repro/internal/wire"
)

// ShardedCounter is the fleet-wide client over any transport:
// pid-striped routing (shard.StripeOf) over S per-stripe pooled
// coalescing Counters, values mapped into per-stripe residue classes
// (stripe s hands out v·S + s), and the read side (RPCs, Packets,
// Retransmits, Read) aggregated across stripes so exact-count
// accounting stays monotone — striping ∘ coalescing ∘ batching,
// written once for every link type.
type ShardedCounter struct {
	name  string
	ctrs  []*Counter
	n     int64
	plane *ctlplane.Fleet // per-stripe aggregation behind one Source
}

// NewShardedCounter composes per-stripe Counters (ctrs[i] serves stripe
// i — typically one per independent deployment of the same topology)
// into the fleet-wide client, registering each stripe with the
// control-plane fleet under its stripe index. Each stripe's Counter
// owns its own client id, so the stripes' exactly-once dedup windows —
// and their retry budgets — are fully independent.
func NewShardedCounter(name string, ctrs []*Counter) *ShardedCounter {
	t := &ShardedCounter{
		name:  name,
		ctrs:  ctrs,
		n:     int64(len(ctrs)),
		plane: ctlplane.NewFleet(name, "stripe"),
	}
	for i, c := range ctrs {
		t.plane.Add(strconv.Itoa(i), c)
	}
	return t
}

// Deployment is what NewFleet asks of one stripe: a Link that builds its
// own pooled Counter — so a transport's extra series (udpnet's packet,
// retransmit and pipeline gauges) register exactly as they do for a lone
// deployment — and names its topology for the fleet name. Every
// transport's *Cluster satisfies it; comparable admits the nil check.
type Deployment interface {
	comparable
	Link
	NewCounterPool(width int) *Counter
	Topology() string
}

// NewFleet composes S independent deployments of one topology shape
// into a pid-striped fleet — stripes[i] serves stripe i, each behind its
// own pooled Counter of the given width (<= 0 defaults per stripe to its
// input width). The fleet is named "<transport>shard<S>:<topology>".
// The stripes may share one topology object: a deployment only reads it;
// the mutable balancer state lives on the stripe's own servers.
func NewFleet[D Deployment](stripes []D, poolWidth int) (*ShardedCounter, error) {
	if len(stripes) == 0 {
		return nil, errors.New("xport: NewFleet with no stripes")
	}
	var none D
	for i, d := range stripes {
		if d == none {
			return nil, fmt.Errorf("xport: NewFleet stripe %d is nil", i)
		}
		if d.InWidth() != stripes[0].InWidth() || d.OutWidth() != stripes[0].OutWidth() {
			return nil, fmt.Errorf("xport: NewFleet stripe %d shape differs", i)
		}
	}
	ctrs := make([]*Counter, len(stripes))
	for i, d := range stripes {
		ctrs[i] = d.NewCounterPool(poolWidth)
	}
	name := fmt.Sprintf("%sshard%d:%s", stripes[0].Transport(), len(stripes), stripes[0].Topology())
	return NewShardedCounter(name, ctrs), nil
}

// StartStripes runs start once per stripe — typically a transport's
// loopback StartCluster — and returns the deployments plus one stop
// function for all of them; a failed start stops the stripes already
// up. The test and benchmark harness under every striped fleet.
func StartStripes[D any](n int, start func() (D, func(), error)) ([]D, func(), error) {
	stripes := make([]D, 0, n)
	var stops []func()
	stop := func() {
		for _, f := range stops {
			f()
		}
	}
	for i := 0; i < n; i++ {
		d, dstop, err := start()
		if err != nil {
			stop()
			return nil, nil, err
		}
		stripes = append(stripes, d)
		stops = append(stops, dstop)
	}
	return stripes, stop, nil
}

// StripeStatus is one stripe's slot in a sharded counter's /status.
type StripeStatus struct {
	Stripe       int             `json:"stripe"`
	ResidueClass string          `json:"residue_class"` // global values this stripe hands out
	Health       ctlplane.Health `json:"health"`
	Status       CounterStatus   `json:"status"`
}

// ShardedStatus is the fleet-wide /status document.
type ShardedStatus struct {
	Name    string         `json:"name"`
	Stripes []StripeStatus `json:"stripes"`
}

// Health implements ctlplane.Source: the fleet is live (and quiescent)
// only when every stripe is.
func (t *ShardedCounter) Health() ctlplane.Health { return t.plane.Health() }

// Status implements ctlplane.Source: every stripe's topology plus the
// residue class its values land in — the document an operator reads to
// see which stripe a global value came from.
func (t *ShardedCounter) Status() any {
	st := ShardedStatus{Name: t.name}
	for i, c := range t.ctrs {
		st.Stripes = append(st.Stripes, StripeStatus{
			Stripe:       i,
			ResidueClass: fmt.Sprintf("v*%d+%d", t.n, i),
			Health:       c.Health(),
			Status:       c.Status().(CounterStatus),
		})
	}
	return st
}

// Gather implements ctlplane.Source: every stripe's samples under a
// stripe="i" label, so per-stripe load (rpcs, retries, windows) sits
// side by side in one scrape and skew across the StripeOf hash is
// visible directly.
func (t *ShardedCounter) Gather() []ctlplane.Sample { return t.plane.Gather() }

// Flights implements ctlplane.FlightSource: every stripe's recent
// flights merged newest first, each stamped with its stripe label — the
// fleet-wide /debug/flights sampler.
func (t *ShardedCounter) Flights() []ctlplane.FlightEvent { return t.plane.Flights() }

// Name identifies the fleet in benchmark tables and /status.
func (t *ShardedCounter) Name() string { return t.name }

// Stripes returns the stripe count S.
func (t *ShardedCounter) Stripes() int { return int(t.n) }

// Counter returns stripe i's underlying pooled Counter (for inspection).
func (t *ShardedCounter) Counter(i int) *Counter { return t.ctrs[i] }

// stripe routes a pid to its per-stripe counter.
func (t *ShardedCounter) stripe(pid int) (int64, *Counter) {
	i := shard.StripeOf(pid, int(t.n))
	return int64(i), t.ctrs[i]
}

// Inc returns the next value in pid's stripe residue class; coalescing,
// pooling and retry resilience apply within the stripe.
func (t *ShardedCounter) Inc(pid int) (int64, error) {
	i, c := t.stripe(pid)
	v, err := c.Inc(pid)
	if err != nil {
		return 0, err
	}
	return v*t.n + i, nil
}

// Dec revokes pid's stripe's most recent increment on the antitoken's
// exit wire.
func (t *ShardedCounter) Dec(pid int) (int64, error) {
	i, c := t.stripe(pid)
	v, err := c.Dec(pid)
	if err != nil {
		return 0, err
	}
	return v*t.n + i, nil
}

// IncBatch claims k values as one batched pipeline on pid's stripe,
// appending the k globally-mapped values to dst.
func (t *ShardedCounter) IncBatch(pid, k int, dst []int64) ([]int64, error) {
	i, c := t.stripe(pid)
	base := len(dst)
	dst, err := c.IncBatch(pid, k, dst)
	if err != nil {
		return dst, err
	}
	return t.remap(dst, base, i), nil
}

// DecBatch revokes k values as one batched antitoken pipeline on pid's
// stripe, appending the k globally-mapped revoked values to dst.
func (t *ShardedCounter) DecBatch(pid, k int, dst []int64) ([]int64, error) {
	i, c := t.stripe(pid)
	base := len(dst)
	dst, err := c.DecBatch(pid, k, dst)
	if err != nil {
		return dst, err
	}
	return t.remap(dst, base, i), nil
}

// remap rewrites the values a stripe appended past `from` into its global
// residue class.
func (t *ShardedCounter) remap(vals []int64, from int, stripe int64) []int64 {
	for j := from; j < len(vals); j++ {
		vals[j] = vals[j]*t.n + stripe
	}
	return vals
}

// SetRetryPolicy bounds every stripe's self-healing retry path (see
// Counter.SetRetryPolicy).
func (t *ShardedCounter) SetRetryPolicy(attempts int, budget time.Duration) {
	for _, c := range t.ctrs {
		c.SetRetryPolicy(attempts, budget)
	}
}

// SetRetryBackoff replaces every stripe's flight-retry pacing.
func (t *ShardedCounter) SetRetryBackoff(b wire.Backoff) {
	for _, c := range t.ctrs {
		c.SetRetryBackoff(b)
	}
}

// RPCs sums the monotone request-frame totals of every stripe — the
// aggregate E26/E28 cost numerator.
func (t *ShardedCounter) RPCs() int64 {
	var total int64
	for _, c := range t.ctrs {
		total += c.RPCs()
	}
	return total
}

// Packets sums the monotone request-datagram totals of every stripe
// (0 on stream transports).
func (t *ShardedCounter) Packets() int64 {
	var total int64
	for _, c := range t.ctrs {
		total += c.Packets()
	}
	return total
}

// Retransmits sums the monotone retransmission totals of every stripe
// (0 on stream transports).
func (t *ShardedCounter) Retransmits() int64 {
	var total int64
	for _, c := range t.ctrs {
		total += c.Retransmits()
	}
	return total
}

// Read sums the stripes' quiescent net counts (increments minus
// decrements) — which is how the exact-count equivalence tests reconcile
// sharded runs against sequential totals.
func (t *ShardedCounter) Read() (int64, error) {
	var total int64
	for _, c := range t.ctrs {
		v, err := c.Read()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// Close shuts every stripe's counter down (ErrClosed to stranded
// callers; cost totals stay counted).
func (t *ShardedCounter) Close() {
	for _, c := range t.ctrs {
		c.Close()
	}
}
