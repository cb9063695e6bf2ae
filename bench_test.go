// Benchmark harness: one benchmark family per experiment row of
// EXPERIMENTS.md / DESIGN.md §3. Custom metrics report the paper's
// quantities (stalls/token for contention experiments) alongside ns/op.
//
// Run everything:  go test -bench=. -benchmem
package countnet

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/contention"
	"repro/internal/counter"
	"repro/internal/dtree"
	"repro/internal/registry"
)

func mustNet(b *testing.B, family string, p registry.Params) *Network {
	b.Helper()
	n, err := registry.Build(family, p)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// E1: construction cost of every family (depth table companion).
func BenchmarkConstruct(b *testing.B) {
	cases := []struct {
		name   string
		family string
		p      registry.Params
	}{
		{"CWT/w=16,t=16", "cwt", registry.Params{W: 16}},
		{"CWT/w=16,t=64", "cwt", registry.Params{W: 16, T: 64}},
		{"CWT/w=64,t=256", "cwt", registry.Params{W: 64, T: 256}},
		{"Bitonic/w=16", "bitonic", registry.Params{W: 16}},
		{"Bitonic/w=64", "bitonic", registry.Params{W: 64}},
		{"Periodic/w=16", "periodic", registry.Params{W: 16}},
		{"Merger/t=64,d=8", "merger", registry.Params{T: 64, Delta: 8}},
		{"Butterfly/w=64", "butterfly", registry.Params{W: 64}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := registry.Build(c.family, c.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3/E13 latency: single-token traversal (depth in action). The irregular
// C(16,64) and the bitonic network have identical depth 10, so their
// per-token latency should match — the paper's "same latency" claim.
func BenchmarkTraverse(b *testing.B) {
	cases := []struct {
		name   string
		family string
		p      registry.Params
	}{
		{"CWT/w=16,t=16", "cwt", registry.Params{W: 16}},
		{"CWT/w=16,t=64", "cwt", registry.Params{W: 16, T: 64}},
		{"Bitonic/w=16", "bitonic", registry.Params{W: 16}},
		{"Periodic/w=16", "periodic", registry.Params{W: 16}},
		{"CWT/w=64,t=64", "cwt", registry.Params{W: 64}},
		{"Bitonic/w=64", "bitonic", registry.Params{W: 64}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			n := mustNet(b, c.family, c.p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Traverse(i % n.InWidth())
			}
		})
	}
}

// E3 fast path: batched traversal vs token-at-a-time. The custom metric
// ns/token divides the batch cost by k — watch it fall as the batch
// amortizes one fetch-add per balancer over many tokens.
func BenchmarkTraverseBatch(b *testing.B) {
	for _, c := range []struct {
		name   string
		family string
		p      registry.Params
	}{
		{"CWT16x64", "cwt", registry.Params{W: 16, T: 64}},
		{"Bitonic16", "bitonic", registry.Params{W: 16}},
	} {
		for _, k := range []int64{1, 8, 64, 512} {
			b.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(b *testing.B) {
				n := mustNet(b, c.family, c.p)
				out := make([]int64, n.OutWidth())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.TraverseBatchInto(i%n.InWidth(), k, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/token")
			})
		}
	}
}

// E23 antitoken mirror: batched antitoken traversal (TraverseAntiBatch),
// one fetch-add per balancer touched on the Fetch&Decrement path.
func BenchmarkTraverseAntiBatch(b *testing.B) {
	for _, k := range []int64{1, 64, 512} {
		b.Run(fmt.Sprintf("CWT16x64/k=%d", k), func(b *testing.B) {
			n := mustNet(b, "cwt", registry.Params{W: 16, T: 64})
			out := make([]int64, n.OutWidth())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.TraverseAntiBatchInto(i%n.InWidth(), k, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/token")
		})
	}
}

// E24: elimination layer under a balanced Inc/Dec workload (pairs cancel
// at the door; the pairs/op metric reports how often).
func BenchmarkEliminatingCounter(b *testing.B) {
	net := mustAny("cwt", registry.Params{W: 16})
	e, err := NewEliminatingCounter(net, EliminationOptions{Slots: 2, Spin: 2048})
	if err != nil {
		b.Fatal(err)
	}
	var pids atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pids.Add(1))
		for pb.Next() {
			if pid%2 == 0 {
				e.Inc(pid)
			} else {
				e.Dec(pid)
			}
		}
	})
	b.ReportMetric(float64(2*e.Pairs())/float64(b.N), "eliminated/op")
}

// E13: wall-clock counter throughput under goroutine parallelism
// (RunParallel scales with GOMAXPROCS). This is the refs [19,20]
// simulation-side sweep, now including the E23 fast-path counters
// (sharded and batched).
func BenchmarkCounterThroughput(b *testing.B) {
	impls := []struct {
		name string
		make func() counter.Counter
	}{
		{"Central", func() counter.Counter { return counter.NewCentral() }},
		{"Locked", func() counter.Counter { return counter.NewLocked() }},
		{"Bitonic16", func() counter.Counter { return counter.NewNetwork(mustAny("bitonic", registry.Params{W: 16})) }},
		{"Periodic16", func() counter.Counter { return counter.NewNetwork(mustAny("periodic", registry.Params{W: 16})) }},
		{"CWT16x16", func() counter.Counter { return counter.NewNetwork(mustAny("cwt", registry.Params{W: 16})) }},
		{"CWT16x64", func() counter.Counter { return counter.NewNetwork(mustAny("cwt", registry.Params{W: 16, T: 64})) }},
		{"Sharded4xCWT16x16", func() counter.Counter {
			c, err := NewShardedCounter(4, func() (*Network, error) { return NewCWT(16, 16) })
			if err != nil {
				panic(err)
			}
			return c
		}},
		{"Batched16xCWT16x64", func() counter.Counter {
			return NewBatchedCounter(mustAny("cwt", registry.Params{W: 16, T: 64}), 16)
		}},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			c := impl.make()
			var pids atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				pid := int(pids.Add(1))
				for pb.Next() {
					c.Inc(pid)
				}
			})
		})
	}
}

func mustAny(family string, p registry.Params) *Network {
	n, err := registry.Build(family, p)
	if err != nil {
		panic(err)
	}
	return n
}

// E10/E11/E12: adversarial amortized contention, reported as the custom
// metric stalls/token. Each benchmark iteration simulates a full execution
// of n*rounds tokens; compare the stalls/token column across families and
// concurrencies — this is the paper's §1.3.1 comparison table.
func BenchmarkContentionSim(b *testing.B) {
	type cse struct {
		name   string
		family string
		p      registry.Params
		n      int
	}
	var cases []cse
	for _, n := range []int{32, 256} {
		cases = append(cases,
			cse{fmt.Sprintf("Bitonic16/n=%d", n), "bitonic", registry.Params{W: 16}, n},
			cse{fmt.Sprintf("Periodic16/n=%d", n), "periodic", registry.Params{W: 16}, n},
			cse{fmt.Sprintf("CWT16x16/n=%d", n), "cwt", registry.Params{W: 16}, n},
			cse{fmt.Sprintf("CWT16x64/n=%d", n), "cwt", registry.Params{W: 16, T: 64}, n},
			cse{fmt.Sprintf("DTree16/n=%d", n), "dtree", registry.Params{W: 16}, n},
		)
	}
	const rounds = 20
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			net := mustNet(b, c.family, c.p)
			var last contention.Result
			for i := 0; i < b.N; i++ {
				last = contention.Run(net, contention.Config{
					N: c.n, Rounds: rounds, Adversary: contention.Greedy{}, Seed: int64(i),
				})
			}
			b.ReportMetric(last.Amortized, "stalls/token")
			b.ReportMetric(float64(last.Tokens)*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
		})
	}
}

// E10: the t-sweep — contention of C(16,t) falls as t grows at constant
// depth (the paper's flexibility claim).
func BenchmarkContentionTSweep(b *testing.B) {
	const n, rounds = 256, 20
	for _, t := range []int{16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("CWT16x%d", t), func(b *testing.B) {
			net := mustNet(b, "cwt", registry.Params{W: 16, T: t})
			var last contention.Result
			for i := 0; i < b.N; i++ {
				last = contention.Run(net, contention.Config{
					N: n, Rounds: rounds, Adversary: contention.Greedy{}, Seed: int64(i),
				})
			}
			b.ReportMetric(last.Amortized, "stalls/token")
		})
	}
}

// E4: quiescent-state arithmetic evaluation speed (the verification
// engine; also a proxy for network size).
func BenchmarkQuiescent(b *testing.B) {
	for _, c := range []struct {
		name   string
		family string
		p      registry.Params
	}{
		{"CWT16x64", "cwt", registry.Params{W: 16, T: 64}},
		{"Bitonic64", "bitonic", registry.Params{W: 64}},
	} {
		b.Run(c.name, func(b *testing.B) {
			n := mustNet(b, c.family, c.p)
			x := make([]int64, n.InWidth())
			for i := range x {
				x[i] = int64(i * 3)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.Quiescent(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E14: the sorting byproduct — comparator-network sort of width-w slices.
func BenchmarkSort(b *testing.B) {
	for _, w := range []int{16, 64} {
		b.Run(fmt.Sprintf("CWTSorter/w=%d", w), func(b *testing.B) {
			net := mustNet(b, "cwt", registry.Params{W: w})
			s, err := NewSortingNetwork(net)
			if err != nil {
				b.Fatal(err)
			}
			in := make([]int, w)
			for i := range in {
				in[i] = (i * 7919) % 1000
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Apply(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E15: antitoken traversal cost (Fetch&Decrement path).
func BenchmarkAntitoken(b *testing.B) {
	n := mustNet(b, "cwt", registry.Params{W: 16, T: 16})
	// Pre-load with tokens so antitokens unwind real state.
	for i := 0; i < 1024; i++ {
		n.Traverse(i % 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			n.Traverse(i % 16)
		} else {
			n.TraverseAnti(i % 16)
		}
	}
}

// E12: the diffracting tree with a live prism under parallel load
// (throughput side; its adversarial contention is in BenchmarkContentionSim).
func BenchmarkDTreeCounter(b *testing.B) {
	c, err := dtree.NewCounter(16, dtree.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// E13 distributed: message-passing emulation Inc latency/throughput.
func BenchmarkDistributedCounter(b *testing.B) {
	for _, c := range []struct {
		name   string
		family string
		p      registry.Params
	}{
		{"Bitonic8", "bitonic", registry.Params{W: 8}},
		{"CWT8x24", "cwt", registry.Params{W: 8, T: 24}},
	} {
		b.Run(c.name, func(b *testing.B) {
			net := mustNet(b, c.family, c.p)
			cl := StartDistributedCluster(net, DistributedConfig{LinkBuffer: 4})
			defer cl.Stop()
			ctr := cl.NewCounter()
			defer ctr.Close()
			var pids atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				pid := int(pids.Add(1))
				for pb.Next() {
					ctr.Inc(pid)
				}
			})
		})
	}
}

// E20: the adaptive counter's fast path (central mode) and network mode.
func BenchmarkAdaptiveCounter(b *testing.B) {
	mk := func() *AdaptiveCounter {
		return NewAdaptiveCounter(AdaptiveCounterConfig{
			BuildNetwork: func() (*Network, error) { return NewCWT(8, 8) },
		})
	}
	b.Run("central-mode", func(b *testing.B) {
		a := mk()
		for i := 0; i < b.N; i++ {
			a.Inc(i)
		}
	})
	b.Run("network-mode", func(b *testing.B) {
		a := mk()
		a.ForceMode("network")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Inc(i)
		}
	})
}

// E13: queueing simulation cost (events/s of the discrete-event engine).
func BenchmarkTimesim(b *testing.B) {
	net := mustNet(b, "cwt", registry.Params{W: 16, T: 64})
	for i := 0; i < b.N; i++ {
		SimulateTiming(net.Clone(), TimingConfig{
			Processes: 64, Ops: 2000, ServiceTime: 1, Exponential: true, Seed: int64(i),
		})
	}
}

// E22: tracing overhead versus plain traversal, plus linearization cost.
func BenchmarkTraceCertification(b *testing.B) {
	net := mustNet(b, "cwt", registry.Params{W: 8, T: 16})
	b.Run("record", func(b *testing.B) {
		rec := NewTraceRecorder()
		for i := 0; i < b.N; i++ {
			rec.Traverse(net, i%8, i)
		}
	})
	b.Run("linearize+replay", func(b *testing.B) {
		rec := NewTraceRecorder()
		src := net.Clone() // fresh balancer states so K indices start at 0
		for i := 0; i < 2000; i++ {
			rec.Traverse(src, i%8, i)
		}
		fresh := mustNet(b, "cwt", registry.Params{W: 8, T: 16})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr, err := rec.Linearize()
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.Replay(fresh); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E17 ablation: traversal latency of the bitonic-merger variant, whose
// depth grows with t (vs constant depth with M(t,δ)).
func BenchmarkBitonicMergerAblation(b *testing.B) {
	net := mustNet(b, "cwt", registry.Params{W: 8, T: 32})
	abl, err := NewCWTWithBitonicMerger(8, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MergerMtDelta/depth="+fmt.Sprint(net.Depth()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.Traverse(i % 8)
		}
	})
	b.Run("BitonicMerger/depth="+fmt.Sprint(abl.Depth()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			abl.Traverse(i % 8)
		}
	})
}
