package network_test

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/balancer"
	"repro/internal/bitonic"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/periodic"
)

// TestBalancerArenaLayout pins the layout Finalize promises: every
// balancer starts a 64-byte cache line and no two share one, for a
// network built directly (C(16,64), bitonic(16)) and one built by
// Cascade (periodic(8)).
func TestBalancerArenaLayout(t *testing.T) {
	for _, mk := range []func() (*network.Network, error){
		func() (*network.Network, error) { return core.New(16, 64) },
		func() (*network.Network, error) { return bitonic.New(16) },
		func() (*network.Network, error) { return periodic.New(8) },
	} {
		n, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		lines := make(map[uintptr]int, n.Size())
		for i := 0; i < n.Size(); i++ {
			at := uintptr(unsafe.Pointer(n.Node(i).Balancer()))
			if at%64 != 0 {
				t.Fatalf("%s: balancer %d at %#x, not 64-byte aligned", n.Name(), i, at)
			}
			if j, ok := lines[at/64]; ok {
				t.Fatalf("%s: balancers %d and %d share a cache line", n.Name(), j, i)
			}
			lines[at/64] = i
		}
	}
}

// TestRandomizeInitialStatesInPlace: randomizing re-initializes the
// balancers where they live, so a *PQ taken before the call sees the new
// initial state and a zero count, and the quiescent evaluation agrees
// with sequential traversal of the randomized network.
func TestRandomizeInitialStatesInPlace(t *testing.T) {
	n, err := core.New(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	held := make([]*balancer.PQ, n.Size())
	for i := range held {
		held[i] = n.Node(i).Balancer()
	}
	for i := 0; i < 40; i++ {
		n.Traverse(i % n.InWidth())
	}
	rng := rand.New(rand.NewSource(3))
	n.RandomizeInitialStates(rng)
	moved := false
	for i, b := range held {
		if n.Node(i).Balancer() != b {
			t.Fatalf("balancer %d was replaced, not re-initialized", i)
		}
		if b.Count() != 0 {
			t.Fatalf("balancer %d count %d after randomizing, want 0", i, b.Count())
		}
		moved = moved || b.Init() != 0
	}
	if !moved {
		t.Fatal("no held balancer sees a new initial state")
	}

	x := make([]int64, n.InWidth())
	got := make([]int64, n.OutWidth())
	for i := 0; i < 300; i++ {
		w := rng.Intn(len(x))
		x[w]++
		got[n.Traverse(w)]++
	}
	want, err := n.Quiescent(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: traversal %v, quiescent %v", i, got, want)
		}
	}
}
