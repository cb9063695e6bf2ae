package countnet

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/seq"
)

// Integration: the full public API path a downstream user takes —
// construct, verify, count, measure, sort.
func TestPublicAPIEndToEnd(t *testing.T) {
	n, err := NewCWT(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n.Depth() != CWTDepth(8) {
		t.Fatalf("depth %d != formula %d", n.Depth(), CWTDepth(8))
	}
	rng := rand.New(rand.NewSource(1))
	if err := VerifyCounting(n, 3, 200, rng); err != nil {
		t.Fatal(err)
	}

	c := NewCounter(n)
	const procs, per = 8, 500
	var wg sync.WaitGroup
	vals := make([][]int64, procs)
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				vals[pid] = append(vals[pid], c.Inc(pid))
			}
		}(pid)
	}
	wg.Wait()
	var all []int64
	for _, v := range vals {
		all = append(all, v...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("counter values not dense at %d: %d", i, v)
		}
	}
}

func TestConstructorsProduceCountingNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	builders := map[string]func() (*Network, error){
		"C(4,8)":      func() (*Network, error) { return NewCWT(4, 8) },
		"Bitonic(8)":  func() (*Network, error) { return NewBitonic(8) },
		"Periodic(8)": func() (*Network, error) { return NewPeriodic(8) },
		"DTree(8)":    func() (*Network, error) { return NewToggleTree(8) },
	}
	for name, build := range builders {
		n, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyCounting(n, 3, 200, rng); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMergerAndPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewMerger(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDifferenceMerger(m, 4, 8, 100, rng); err != nil {
		t.Fatal(err)
	}
	p, err := NewCWTPrefix(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySmoothing(p, 3, 3, 200, rng); err != nil { // s = 8*3/16+2 = 3
		t.Fatal(err)
	}
}

func TestContentionFacade(t *testing.T) {
	n, err := NewCWT(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, adv := range []Adversary{GreedyAdversary(), RandomAdversary(), RoundRobinAdversary(), nil} {
		res := MeasureContention(n, 16, 10, adv, 1)
		if res.Tokens != 160 {
			t.Fatalf("tokens = %d", res.Tokens)
		}
		if !seq.IsStep(res.Exits) {
			t.Fatalf("exits not step under %v", adv)
		}
	}
}

func TestSortingFacade(t *testing.T) {
	n, err := NewCWT(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSortingNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IsSortingNetwork(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedFacade(t *testing.T) {
	n, err := NewBitonic(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := StartDistributedCluster(n, DistributedConfig{})
	defer cl.Stop()
	c := cl.NewCounter()
	defer c.Close()
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		v, err := c.Inc(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestShardedDistributedFacade(t *testing.T) {
	topo, err := NewCWT(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([]*DistributedCluster, 3)
	for i := range clusters {
		clusters[i] = StartDistributedCluster(topo, DistributedConfig{LinkBuffer: 2})
		defer clusters[i].Stop()
	}
	sc, err := NewFleet(clusters, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	seen := map[int64]bool{}
	for i := 0; i < 60; i++ {
		v, err := sc.Inc(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	vals, err := sc.IncBatch(7, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("batched duplicate value %d", v)
		}
		seen[v] = true
	}
	if got, err := sc.Read(); err != nil || got != 100 {
		t.Fatalf("aggregate Read() = (%d, %v), want (100, nil)", got, err)
	}
	if sc.RPCs() <= 0 {
		t.Fatal("no messages billed")
	}
}

func TestTCPFleetFacade(t *testing.T) {
	topo, err := NewCWT(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([]*TCPCluster, 2)
	for i := range clusters {
		c, stop, err := StartTCPCluster(topo, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		clusters[i] = c
	}
	ctr, err := NewFleet(clusters, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := 0; i < 50; i++ {
		v, err := ctr.Inc(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	if got, err := ctr.Read(); err != nil || got != 50 {
		t.Fatalf("aggregate Read() = (%d, %v), want (50, nil)", got, err)
	}
	ctr.Close()
	if _, err := ctr.Inc(0); !errors.Is(err, ErrTCPCounterClosed) {
		t.Fatalf("Inc after Close = %v, want ErrTCPCounterClosed", err)
	}
}

func TestUDPFleetFacade(t *testing.T) {
	topo, err := NewCWT(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([]*UDPCluster, 2)
	for i := range clusters {
		c, stop, err := StartUDPCluster(topo, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		clusters[i] = c
	}
	ctr, err := NewFleet(clusters, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := 0; i < 50; i++ {
		v, err := ctr.Inc(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	if got, err := ctr.Read(); err != nil || got != 50 {
		t.Fatalf("aggregate Read() = (%d, %v), want (50, nil)", got, err)
	}
	ctr.Close()
	if _, err := ctr.Inc(0); !errors.Is(err, ErrUDPCounterClosed) {
		t.Fatalf("Inc after Close = %v, want ErrUDPCounterClosed", err)
	}
}

func TestDiffractingTreeFacade(t *testing.T) {
	dt, err := NewDiffractingTree(8, DiffractingTreeOptions{PrismWidth: 4, SpinBudget: 32})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 8)
	for i := 0; i < 64; i++ {
		counts[dt.TraverseSequential()]++
	}
	if !seq.IsStep(counts) {
		t.Fatalf("leaf counts %v", counts)
	}
}

func TestBuilderFacade(t *testing.T) {
	b, in := NewBuilder("custom", 2)
	out := b.Balancer(in, 4)
	n, err := b.Finalize(out)
	if err != nil {
		t.Fatal(err)
	}
	if n.OutWidth() != 4 {
		t.Fatal("custom network broken")
	}
}

func TestRenderFacade(t *testing.T) {
	n, err := NewCWT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if Summary(n) == "" || Diagram(n) == "" {
		t.Fatal("empty rendering")
	}
	if _, err := BrickDiagram(n); err != nil {
		t.Fatal(err)
	}
	blocks := Decompose(n)
	if blocks.Nb.Balancers != 2 {
		t.Fatalf("blocks = %+v", blocks)
	}
}

func TestCWTValidFacade(t *testing.T) {
	if !CWTValid(8, 24) || CWTValid(6, 6) {
		t.Fatal("CWTValid broken")
	}
}
