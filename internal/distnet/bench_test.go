package distnet

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
)

// E25: messages and wall-clock per token of the batched message protocol
// as the batch size grows. msgs/token is the deployment's cost metric —
// watch it collapse from ~depth towards size/k as k rises.
func BenchmarkInjectBatch(b *testing.B) {
	for _, k := range []int64{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("CWT8x24/k=%d", k), func(b *testing.B) {
			net, err := core.New(8, 24)
			if err != nil {
				b.Fatal(err)
			}
			sys := Start(net, Config{LinkBuffer: 4})
			defer sys.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.InjectBatch(i%8, k)
			}
			b.StopTimer()
			tokens := float64(b.N) * float64(k)
			b.ReportMetric(float64(sys.Messages())/tokens, "msgs/token")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tokens, "ns/token")
		})
	}
}

// E26: sharded deployments — S independent systems with pid striping;
// per-shard msgs/token must hold the E25 batched floor while the hot
// links multiply by S.
func BenchmarkShardedIncBatch(b *testing.B) {
	for _, S := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("CWT8x24/S=%d/k=64", S), func(b *testing.B) {
			sc := newFleet(b, S, func() (*network.Network, error) {
				return core.New(8, 24)
			}, Config{LinkBuffer: 4})
			var vals []int64
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vals, err = sc.IncBatch(i, 64, vals[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tokens := float64(b.N) * 64
			b.ReportMetric(float64(sc.RPCs())/tokens, "msgs/token")
		})
	}
}

// E25: the coalescing counter under parallel load — concurrent Inc
// callers on the same input wire share flights, so msgs/op falls below
// the per-token hop count whenever the workload is wide.
func BenchmarkCounterCoalesced(b *testing.B) {
	net, err := core.New(8, 24)
	if err != nil {
		b.Fatal(err)
	}
	c := newCounter(b, net, Config{LinkBuffer: 4})
	var pids atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pids.Add(1))
		for pb.Next() {
			mustInc(b, c, pid)
		}
	})
	b.ReportMetric(float64(c.RPCs())/float64(b.N), "msgs/op")
}
