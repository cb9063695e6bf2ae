package xport_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/inproc"
	"repro/internal/udpnet"
	"repro/internal/xport"
)

// E33: the Counter — pool, tape, retry loop, histograms and ring on top
// of a session — costs 0 allocs/op in steady state, on the two shapes
// bench/ measures: single tokens over the in-memory link (inproc-k1) and
// 64-batches over pipelined loopback UDP (udp-k64). ReportAllocs prints
// the figure; the AllocsPerRun check makes a regression fail the named
// gate instead of printing a different number (and at bench-smoke's
// -benchtime=1x the printed one is the shards refilling the pools the
// pre-run GC emptied, not the steady state).
func BenchmarkCounterFlight(b *testing.B) {
	topo, err := core.New(8, 24)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, ctr *xport.Counter, op func(i int) error) {
		defer ctr.Close()
		if err := op(0); err != nil {
			b.Fatal(err) // warm-up: session dialed, scratch made and sized
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := op(0); err != nil {
				b.Error(err)
			}
		}); n != 0 {
			b.Fatalf("%.0f allocs/op, want 0", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(i); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("inproc/Inc", func(b *testing.B) {
		cluster, stop, err := inproc.StartCluster(topo, 3)
		if err != nil {
			b.Fatal(err)
		}
		defer stop()
		ctr := cluster.NewCounterPool(1)
		run(b, ctr, func(i int) error { _, err := ctr.Inc(i); return err })
	})
	b.Run("udp/IncBatch64", func(b *testing.B) {
		cluster, stop, err := udpnet.StartClusterConfig(topo, 3, udpnet.ShardConfig{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer stop()
		cluster.SetPipeline(4)
		ctr := cluster.NewCounterPool(2)
		var vals []int64
		run(b, ctr, func(i int) (err error) { vals, err = ctr.IncBatch(i, 64, vals[:0]); return })
	})
}
