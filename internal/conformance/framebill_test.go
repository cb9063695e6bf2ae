package conformance

import (
	"testing"

	"repro/internal/core"
)

// TestLatencyFrameBillUnchanged is the observability zero-cost gate:
// the latency histograms, the flight ring and the /debug/flights
// surface instrument the xport flight path, and this test proves they
// add ZERO frames by replaying E31's exact workload (C(4,8), 2 shards,
// 512 single Incs at k=1 and 32 batches at k=64) and asserting the
// absolute integer bill recorded BEFORE the instrumentation landed:
// 2048 rpcs at k=1 and 480 rpcs at k=64 (0.234 rpcs/token, under the
// 1.05 floor), bit-identical on every transport. If instrumentation —
// or anything else — ever adds a frame, retries a flight, or changes
// the walk, this fails with the exact delta.
func TestLatencyFrameBillUnchanged(t *testing.T) {
	// The E31 bill for C(4,8): depth 3, so k=1 costs depth+1 = 4 rpcs
	// per token; the batched walk costs 15 rpcs per 64-token batch
	// (balancers touched + non-empty exit cells).
	const (
		wantK1Bill  = 2048 // 512 tokens x (depth+1)
		wantK64Bill = 480  // 32 batches x 15 rpcs
	)
	for _, fx := range faultable {
		t.Run(fx.name, func(t *testing.T) {
			topo, err := core.New(4, 8)
			if err != nil {
				t.Fatal(err)
			}
			inst := fx.mk(t, topo, 2)
			ctr := inst.counter(1)
			for i := 0; i < 512; i++ {
				if _, err := ctr.Inc(i); err != nil {
					t.Fatal(err)
				}
			}
			if got := ctr.RPCs(); got != wantK1Bill {
				t.Fatalf("k=1 bill = %d rpcs for 512 tokens, want the pre-instrumentation %d", got, wantK1Bill)
			}
			var scratch []int64
			for i := 0; i < 32; i++ {
				if scratch, err = ctr.IncBatch(i, 64, scratch[:0]); err != nil {
					t.Fatal(err)
				}
			}
			batched := ctr.RPCs() - wantK1Bill
			if batched != wantK64Bill {
				t.Fatalf("k=64 bill = %d rpcs for 2048 tokens, want the pre-instrumentation %d", batched, wantK64Bill)
			}
			if 1000*batched > 235*2048 {
				t.Fatalf("k=64 bill %d rpcs breaks the E31 0.234 rpcs/token floor", batched)
			}
			// The instrumentation the bill just proved free must actually
			// be populated: every flight observed, every flight ringed.
			if got, err := ctr.Read(); err != nil || got != 512+32*64 {
				t.Fatalf("Read = %d, %v; want %d", got, err, 512+32*64)
			}
			if flights := ctr.Flights(); len(flights) == 0 {
				t.Fatal("flight ring empty after 544 flights")
			}
			ctr.Close()
		})
	}
}
