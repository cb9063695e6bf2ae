package main

import (
	"math"

	"repro/internal/ctlplane"
	"repro/internal/wire"
)

// counts is one reading of the program's own counters and histograms,
// taken through the public Gather() of the counter and of every shard;
// a measured phase is described by the difference of two readings.
type counts struct {
	scalar map[string]int64                  // summed over label sets
	hist   map[string]*ctlplane.HistSnapshot // client-side families (one label set each)
	// The traced counter is built with xport.NewCounter directly and so
	// lacks udpnet's extra registrations; the packet totals are read
	// through the Counter's accessors, which work for both.
	packets, retransmits int64
}

func readCounts(f *fleet) counts {
	c := counts{scalar: map[string]int64{}, hist: map[string]*ctlplane.HistSnapshot{}}
	if f.ctr == nil {
		return c
	}
	fold := func(samples []ctlplane.Sample) {
		for _, s := range samples {
			if s.Hist != nil {
				c.hist[s.Name] = s.Hist
				continue
			}
			c.scalar[s.Name] += s.Value
		}
	}
	fold(f.ctr.Gather())
	for _, sh := range f.shards {
		fold(sh.Gather())
	}
	c.packets, c.retransmits = f.ctr.Packets(), f.ctr.Retransmits()
	return c
}

// delta is after−before of one scalar family.
func delta(after, before counts, name string) float64 {
	return float64(after.scalar[name] - before.scalar[name])
}

// histQuantileUs is the q-quantile, in µs, of the observations a
// histogram family took between two readings: an upper bound to within
// one of the program's power-of-two buckets. 0 when nothing was
// observed or the quantile lies in the overflow bucket.
func histQuantileUs(after, before counts, name string, q float64) float64 {
	a, b := after.hist[name], before.hist[name]
	if a == nil {
		return 0
	}
	at := func(i int) int64 {
		n := a.Buckets[i].Count
		if b != nil {
			n -= b.Buckets[i].Count
		}
		return n
	}
	total := at(len(a.Buckets) - 1)
	if total <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	for i := range a.Buckets {
		if at(i) >= rank {
			if math.IsInf(a.Buckets[i].LE, 1) {
				return 0
			}
			return a.Buckets[i].LE * 1e6
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// countMetrics derives the C rows of the per-layer table from a phase.
func countMetrics(p *phase, m metrics) {
	a, b := p.after, p.before
	tokens, ops := float64(p.measuredTokens), float64(p.measuredOps)
	flights := delta(a, b, wire.MetricClientFlights)
	rpcs := delta(a, b, wire.MetricClientRPCs)
	packets := float64(a.packets - b.packets)
	m.set("xport.rpcs_per_token", ratio(rpcs, tokens))
	m.set("xport.flights_per_op", ratio(flights, ops))
	m.set("xport.tokens_per_flight", ratio(tokens, flights))
	m.set("xport.retries_per_flight", ratio(delta(a, b, wire.MetricClientRetries), flights))
	m.set("xport.pool_dials", delta(a, b, wire.MetricClientPoolDials))
	m.set("xport.coalesce_wait_p99_us", histQuantileUs(a, b, wire.MetricClientCoalesceSeconds, 0.99))
	m.set("xport.pool_checkout_p99_us", histQuantileUs(a, b, wire.MetricClientCheckoutSeconds, 0.99))
	m.set("xport.attempt_p99_us", histQuantileUs(a, b, wire.MetricClientAttemptSeconds, 0.99))
	m.set("wire.dedup_replays", delta(a, b, wire.MetricDedupReplays))
	m.set("udpnet.packets_per_token", ratio(packets, tokens))
	m.set("udpnet.frames_per_packet", ratio(rpcs, packets))
	m.set("udpnet.retransmits_per_packet", ratio(float64(a.retransmits-b.retransmits), packets))
	m.set("udpnet.shard_recv_batch_size", ratio(delta(a, b, wire.MetricShardRecvBatchPackets), delta(a, b, wire.MetricShardRecvBatches)))
	m.set("udpnet.shard_send_batch_size", ratio(delta(a, b, wire.MetricShardSendBatchPackets), delta(a, b, wire.MetricShardSendBatches)))
	m.set("udpnet.shard_drops", delta(a, b, wire.MetricShardDrops))
	m.set("proc.sys_cpu_share", p.sysShare)
	m.set("proc.ctx_switches_per_token", ratio(float64(p.ctxSw), tokens))
	m.set("proc.gc_cycles", float64(p.gcCycles))
	m.set("proc.gc_pause_ms", p.gcPauseMs)
	m.set("proc.heap_inuse_mb", p.heapMB)
	m.set("run.slice_iqr_ratio", iqrRatio(p.tokens))
	m.set("run.tokens_per_s_whole", ratio(p.totalTokens(), float64(len(p.tokens))*p.sliceLen.Seconds()))
	m.set("run.op_p99_us_whole", p.whole.quantile(0.99)/1e3)
	m.set("run.op_max_us", float64(p.whole.max)/1e3)
}
