package udpnet

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// E28: frame and datagram cost per token of batched UDP pipelines. The
// rpcs/token column must hold the tcpnet E25-E27 floor (1.05 at k=64) —
// the transports send the same frames; UDP just packs them — while
// packets/token shows the MTU-packing win a datagram transport banks on
// top.
func BenchmarkUDPCounterBatch(b *testing.B) {
	for _, k := range []int{64, 512} {
		b.Run(fmt.Sprintf("CWT8x24/k=%d", k), func(b *testing.B) {
			topo, err := core.New(8, 24)
			if err != nil {
				b.Fatal(err)
			}
			cluster, stop, err := StartCluster(topo, 3)
			if err != nil {
				b.Fatal(err)
			}
			defer stop()
			ctr := cluster.NewCounterPool(1)
			defer ctr.Close()
			var vals []int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, err = ctr.IncBatch(i, k, vals[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tokens := float64(b.N) * float64(k)
			b.ReportMetric(float64(ctr.RPCs())/tokens, "rpcs/token")
			b.ReportMetric(float64(ctr.Packets())/tokens, "packets/token")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tokens, "ns/token")
		})
	}
}

// E28 lossy column: the same pipeline under 10% injected packet loss
// (both directions) plus duplication and reordering — the retransmit
// timer absorbs it all; the retransmit rate is the price.
func BenchmarkUDPCounterBatchLossy(b *testing.B) {
	topo, err := core.New(8, 24)
	if err != nil {
		b.Fatal(err)
	}
	cluster, stop, err := StartCluster(topo, 3)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	fastRetransmit(cluster, 25)
	cluster.SetDialWrapper(Faults{Drop: 0.10, Dup: 0.1, Reorder: 0.1, Seed: 42}.Wrapper())
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()
	var vals []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err = ctr.IncBatch(i, 64, vals[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tokens := float64(b.N) * 64
	b.ReportMetric(float64(ctr.RPCs())/tokens, "rpcs/token")
	if p := ctr.Packets(); p > 0 {
		b.ReportMetric(float64(ctr.Retransmits())/float64(p), "retrans/packet")
	}
}

// E30 shard-side row: concurrent sessions against worker-pool shards.
// ReportAllocs pins the zero-allocation claim — after warmup the shard
// pipeline (pooled buffers, recvmmsg/sendmmsg scratch, per-worker
// decode state) and the session batch path allocate nothing per op;
// the allocs/op printed here is the CLIENT side of that claim and the
// shard side shows up as it staying flat as Workers grows.
func BenchmarkUDPShardWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("CWT8x24/W=%d/k=64", workers), func(b *testing.B) {
			topo, err := core.New(8, 24)
			if err != nil {
				b.Fatal(err)
			}
			cluster, stop, err := StartClusterConfig(topo, 3, ShardConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer stop()
			sess, err := cluster.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			var vals []int64
			if vals, err = sess.IncBatch(0, 64, vals[:0]); err != nil {
				b.Fatal(err) // warmup: pools primed, scratch sized
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, err = sess.IncBatch(i, 64, vals[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tokens := float64(b.N) * 64
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tokens, "ns/token")
		})
	}
}

// E30 session-side row: the batch path at window 1 against window 4,
// same engine, same worker-pool shards. ReportAllocs proves the
// steady-state 0 allocs/op claim on the session batch path — handles,
// packet buffers and reply scratch are all pooled per session.
func BenchmarkUDPPipelinedBatch(b *testing.B) {
	for _, depth := range []int{1, 4} {
		b.Run(fmt.Sprintf("CWT8x24/P=%d/k=64", depth), func(b *testing.B) {
			topo, err := core.New(8, 24)
			if err != nil {
				b.Fatal(err)
			}
			cluster, stop, err := StartClusterConfig(topo, 3, ShardConfig{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer stop()
			cluster.SetPipeline(depth)
			sess, err := cluster.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			var vals []int64
			if vals, err = sess.IncBatch(0, 64, vals[:0]); err != nil {
				b.Fatal(err) // warmup: handle pool primed, scratch sized
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, err = sess.IncBatch(i, 64, vals[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tokens := float64(b.N) * 64
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tokens, "ns/token")
		})
	}
}

// E28 sharded row: pid-striped UDP fleets hold the per-stripe floor
// like tcpnet's E26.
func BenchmarkUDPShardedClusterIncBatch(b *testing.B) {
	for _, S := range []int{1, 2} {
		b.Run(fmt.Sprintf("CWT8x24/S=%d/k=64", S), func(b *testing.B) {
			topo, err := core.New(8, 24)
			if err != nil {
				b.Fatal(err)
			}
			sc, stop, err := startStripes(topo, S, 3)
			if err != nil {
				b.Fatal(err)
			}
			defer stop()
			ctr := newFleet(b, sc, 1)
			defer ctr.Close()
			var vals []int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, err = ctr.IncBatch(i, 64, vals[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tokens := float64(b.N) * 64
			b.ReportMetric(float64(ctr.RPCs())/tokens, "rpcs/token")
		})
	}
}
