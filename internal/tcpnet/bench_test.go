package tcpnet

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// E25: round trips and wall-clock per token of batched TCP pipelines as
// the batch size grows — rpcs/token falls from depth+1 towards
// (size+t)/k.
func BenchmarkSessionIncBatch(b *testing.B) {
	for _, k := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("CWT8x24/k=%d", k), func(b *testing.B) {
			topo, err := core.New(8, 24)
			if err != nil {
				b.Fatal(err)
			}
			cluster, stop := startCluster(b, topo, 3)
			defer stop()
			sess, err := cluster.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			var vals []int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, err = sess.IncBatch(i, k, vals[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tokens := float64(b.N) * float64(k)
			b.ReportMetric(float64(sess.RPCs())/tokens, "rpcs/token")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tokens, "ns/token")
		})
	}
}

// E26: sharded fleets — S independent deployments with pid striping;
// per-shard rpcs/token must hold the E25 batched floor while the hot
// links multiply by S.
func BenchmarkShardedClusterIncBatch(b *testing.B) {
	for _, S := range []int{1, 2, 4} {
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

// E27: dedup-window overhead — batched pipelines through the pooled
// Counter, every mutating frame seq-numbered and dedup-tracked
// server-side. rpcs/token must hold the E26 k=64 floor (1.05): the
// exactly-once machinery costs bytes per frame and bookkeeping per
// shard, never round trips.
func BenchmarkCounterDedupBatch(b *testing.B) {
	for _, k := range []int{64, 512} {
		b.Run(fmt.Sprintf("CWT8x24/k=%d", k), func(b *testing.B) {
			topo, err := core.New(8, 24)
			if err != nil {
				b.Fatal(err)
			}
			cluster, stop := startCluster(b, topo, 3)
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
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tokens, "ns/token")
		})
	}
}

// E25: the coalescing counter client under parallel load.
func BenchmarkCounterCoalesced(b *testing.B) {
	topo, err := core.New(8, 24)
	if err != nil {
		b.Fatal(err)
	}
	cluster, stop := startCluster(b, topo, 3)
	defer stop()
	ctr := cluster.NewCounter()
	defer ctr.Close()
	var pids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pids.Add(1))
		for pb.Next() {
			if _, err := ctr.Inc(pid); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(ctr.RPCs())/float64(b.N), "rpcs/op")
}
