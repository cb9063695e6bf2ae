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

// TestColdStartAllocs pins what bench/'s inproc-k1 set-up cycle costs in
// allocations: build C(8,24), start 3 shards, build a pool-1 client,
// return one token, Close. It times nothing; the count is an integer
// the host's noise cannot move. Registering a shard's or client's
// metrics is an append (ctlplane.Registry), not three map inserts and a
// key string per series (211 allocations a cycle; indexing took 444).
func TestColdStartAllocs(t *testing.T) {
	const max = 220
	got := testing.AllocsPerRun(50, func() {
		topo, err := core.New(8, 24)
		if err != nil {
			t.Fatal(err)
		}
		cluster, stop, err := StartCluster(topo, 3)
		if err != nil {
			t.Fatal(err)
		}
		ctr := cluster.NewCounterPool(1)
		if _, err := ctr.Inc(0); err != nil {
			t.Error(err)
		}
		ctr.Close()
		stop()
	})
	t.Logf("inproc-k1 set-up cycle: %.0f allocs", got)
	if got > max {
		t.Errorf("inproc-k1 set-up cycle took %.0f allocations, want <= %d", got, max)
	}
}
