package counter

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
)

func buildC88() (*network.Network, error) { return core.New(8, 8) }

func TestIssued(t *testing.T) {
	net, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := NewNetwork(net)
	if c.Issued() != 0 {
		t.Fatalf("fresh Issued = %d", c.Issued())
	}
	for i := 0; i < 13; i++ {
		c.Inc(i)
	}
	if c.Issued() != 13 {
		t.Fatalf("Issued = %d, want 13", c.Issued())
	}
}

func TestNetworkBase(t *testing.T) {
	net, err := core.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := NewNetworkBase(net, 100)
	for i := int64(0); i < 10; i++ {
		if got := c.Inc(int(i)); got != 100+i {
			t.Fatalf("Inc = %d, want %d", got, 100+i)
		}
	}
	if c.Issued() != 10 {
		t.Fatalf("Issued = %d", c.Issued())
	}
}

func TestAdaptiveStartsCentral(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{BuildNetwork: buildC88})
	if a.Mode() != "central" {
		t.Fatalf("mode = %s", a.Mode())
	}
	for i := int64(0); i < 5; i++ {
		if got := a.Inc(0); got != i {
			t.Fatalf("Inc = %d, want %d", got, i)
		}
	}
}

func TestAdaptiveForcedMigrationKeepsDensity(t *testing.T) {
	// Batch < 0 serves network epochs token-at-a-time, so sequential values
	// stay in issue order as well as dense; the batched default is covered
	// by TestAdaptiveBatchedMigrationKeepsDensity below.
	a := NewAdaptive(AdaptiveConfig{BuildNetwork: buildC88, Batch: -1})
	var got []int64
	for i := 0; i < 100; i++ {
		got = append(got, a.Inc(i))
	}
	a.ForceMode("network")
	if a.Mode() != "network" {
		t.Fatal("migration to network failed")
	}
	for i := 0; i < 100; i++ {
		got = append(got, a.Inc(i))
	}
	a.ForceMode("central")
	if a.Mode() != "central" {
		t.Fatal("migration back failed")
	}
	for i := 0; i < 100; i++ {
		got = append(got, a.Inc(i))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("values not dense across migrations: position %d holds %d", i, v)
		}
	}
	if a.Migrations() != 2 {
		t.Fatalf("migrations = %d", a.Migrations())
	}
}

// Batched network epochs (fixed batch size here, to bound the spill)
// spill their claimed-but-unconsumed values at migration time and serve
// them first afterwards, so the value range stays dense as a multiset
// across migrations once the spill is drained.
func TestAdaptiveBatchedMigrationKeepsDensity(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{BuildNetwork: buildC88, Batch: 8})
	var got []int64
	for i := 0; i < 50; i++ {
		got = append(got, a.Inc(i))
	}
	a.ForceMode("network")
	if a.Batch() != 8 {
		t.Fatalf("Batch() = %d, want the configured 8", a.Batch())
	}
	for i := 0; i < 50; i++ {
		got = append(got, a.Inc(i))
	}
	a.ForceMode("central")
	for i := 0; i < 50; i++ {
		got = append(got, a.Inc(i))
	}
	// Drain whatever the network epoch spilled so every claimed value has
	// been handed out, then the multiset must be exactly {0..m-1}.
	for a.spillLeft.Load() > 0 {
		got = append(got, a.Inc(0))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("values not dense across batched migrations: position %d holds %d", i, v)
		}
	}
}

// The default configuration learns the batch size from the observed
// crossover at the first network migration and caches it across epochs.
func TestAdaptiveLearnsBatch(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{BuildNetwork: buildC88})
	if a.Batch() != 0 {
		t.Fatalf("batch resolved to %d before any network epoch", a.Batch())
	}
	a.ForceMode("network")
	k := a.Batch()
	if k < 8 || k > 4096 { // ladder floor 8, heuristic ceiling 4096
		t.Fatalf("learned batch %d outside [8, 4096]", k)
	}
	a.ForceMode("central")
	a.ForceMode("network")
	if a.Batch() != k {
		t.Fatalf("batch re-learned across epochs: %d then %d", k, a.Batch())
	}
}

// Concurrent increments across concurrent forced migrations must still
// claim unique dense values. A network epoch serves through Batched, so
// when the run ends some claimed values are still waiting in its buffers
// or in the spill; the contract (see Adaptive) is that the returned
// values and Outstanding together are exactly [0, issued) — asserting
// density of the returned values alone would pass or fail by which mode
// the last migration happened to leave.
func TestAdaptiveConcurrentMigration(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{BuildNetwork: buildC88})
	const procs, per = 8, 2000
	vals := make([][]int64, procs)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	migrated := make(chan struct{})
	go func() {
		defer close(migrated)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				a.ForceMode("network")
			} else {
				a.ForceMode("central")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				vals[pid] = append(vals[pid], a.Inc(pid))
			}
		}(pid)
	}
	wg.Wait()
	close(stop)
	<-migrated
	all := a.Outstanding(nil)
	held := len(all)
	for _, v := range vals {
		all = append(all, v...)
	}
	if len(all) < procs*per {
		t.Fatalf("%d values returned or held, fewer than the %d Incs", len(all), procs*per)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("density broken at %d: %d (migrations=%d, held=%d)", i, v, a.Migrations(), held)
		}
	}
	t.Logf("survived %d migrations, %d values held at the end", a.Migrations(), held)
}

// Automatic migration: with an absurdly low up-threshold the counter must
// leave central mode under load.
func TestAdaptiveAutoEscalation(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{
		BuildNetwork: buildC88,
		UpLatency:    1, // 1ns: any sampled op exceeds this
		MinEpochOps:  64,
	})
	var wg sync.WaitGroup
	for pid := 0; pid < 4; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				a.Inc(pid)
			}
		}(pid)
	}
	wg.Wait()
	if a.Migrations() == 0 {
		t.Fatal("no automatic migration despite 1ns threshold")
	}
	if a.Mode() != "network" {
		t.Logf("mode settled at %s after %d migrations (timing dependent)", a.Mode(), a.Migrations())
	}
}

func TestAdaptiveWithoutBuilderStaysCentral(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{UpLatency: 1, MinEpochOps: 1})
	for i := 0; i < 1000; i++ {
		a.Inc(i)
	}
	if a.Mode() != "central" || a.Migrations() != 0 {
		t.Fatal("migrated without a network builder")
	}
}
