package main

import (
	"reflect"
	"sort"
	"testing"
)

func kinds(ops []op) []int {
	out := make([]int, len(ops))
	for i, o := range ops {
		out[i] = int(o.kind)*1000 + o.pid
	}
	return out
}

// The same seed must give the same op sequence; another seed the same
// mix in another order, so seeds vary the input without varying the load.
func TestSeedReproducesTheOpSequence(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < w.clients; c++ {
			a, b := w.pattern(42, c), w.pattern(42, c)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: seed 42 gave two different sequences", w.name, c)
			}
			base, other := kinds(w.base(c)), kinds(w.pattern(43, c))
			sort.Ints(base)
			sort.Ints(other)
			if !reflect.DeepEqual(base, other) {
				t.Errorf("%s client %d: seed 43 changed the op mix", w.name, c)
			}
			if len(a)%w.sampleEvery == 0 && w.sampleEvery > 1 {
				t.Errorf("%s: sampling stride %d divides the pattern length %d, so one position would never be sampled", w.name, w.sampleEvery, len(a))
			}
		}
	}
	differs := false
	w := findWorkload("mem-cwt")
	for seed := int64(1); seed <= 8 && !differs; seed++ {
		differs = !reflect.DeepEqual(w.pattern(seed, 0), w.pattern(seed+1, 0))
	}
	if !differs {
		t.Error("eight consecutive seeds all gave mem-cwt the same order")
	}
}

func TestWorkloadTableMatchesTheIssue(t *testing.T) {
	want := []string{"mem-cwt", "inproc-k1", "udp-k64", "udp-k1-rw"}
	if len(workloads) != len(want) {
		t.Fatalf("%d workloads, want %d", len(workloads), len(want))
	}
	for i, w := range workloads {
		if w.name != want[i] || w.clients < 1 || w.clients > 2 || w.warmupOps < 1 || w.sampleEvery < 1 {
			t.Errorf("workload %d = %+v", i, w)
		}
	}
}
