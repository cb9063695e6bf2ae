package inproc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// The bench/ workload inproc-k1 end to end — C(8,24) over 3 shards, one
// client, pool width 1: with no kernel and no codec below it, whatever
// the xport flight path allocates per op is this deployment's whole
// allocation bill, and in steady state that is nothing.
func TestInprocCounterZeroAlloc(t *testing.T) {
	topo, err := core.New(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop, err := StartCluster(topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()
	var vals []int64
	var issued int64
	for _, op := range []struct {
		name string
		net  int64
		run  func() error
	}{
		{"Inc", 1, func() error { _, err := ctr.Inc(3); return err }},
		{"Dec", -1, func() error { _, err := ctr.Dec(3); return err }},
		{"IncBatch(64)", 64, func() (err error) { vals, err = ctr.IncBatch(5, 64, vals[:0]); return }},
		{"Read", 0, func() error { _, err := ctr.Read(); return err }},
	} {
		if err := op.run(); err != nil { // warm-up: session dialed, scratch made and sized
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := op.run(); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("%s allocates %.0f times per op, want 0", op.name, n)
		}
		issued += 102 * op.net // the warm-up, AllocsPerRun's own, and its 100
	}
	if got, err := ctr.Read(); err != nil || got != issued {
		t.Fatalf("Read() = %d, %v; want %d", got, err, issued)
	}
}

// The in-memory shard's control-plane view, through the handle bench/
// scrapes (Cluster.Shard(i).Gather()): a served frame is one the core
// answered, so the shards' frames add up to the client's rpcs exactly.
func TestInprocShardFramesMatchClientRPCs(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop, err := StartCluster(topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctr := cluster.NewCounter()
	defer ctr.Close()
	for pid := 0; pid < 8; pid++ {
		if _, err := ctr.Inc(pid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctr.IncBatch(3, 20, nil); err != nil {
		t.Fatal(err)
	}
	var served int64
	for i := 0; i < 3; i++ {
		for _, sm := range cluster.Shard(i).Gather() {
			if sm.Name == wire.MetricShardFrames {
				served += sm.Value
			}
		}
	}
	if served == 0 || served != ctr.RPCs() {
		t.Fatalf("shards served %d frames, the client sent %d rpcs", served, ctr.RPCs())
	}
}
