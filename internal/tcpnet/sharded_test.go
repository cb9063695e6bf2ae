package tcpnet

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/shard"
	"repro/internal/xport"
)

// startStripes launches S independent loopback deployments of topo, each
// across `shards` servers, with one stop function for all of them.
func startStripes(topo *network.Network, S, shards int) ([]*Cluster, func(), error) {
	return xport.StartStripes(S, func() (*Cluster, func(), error) {
		return StartCluster(topo, shards)
	})
}

// newFleet stripes the deployments with the shared fleet constructor.
func newFleet(tb testing.TB, clusters []*Cluster, width int) *xport.ShardedCounter {
	tb.Helper()
	ctr, err := xport.NewFleet(clusters, width)
	if err != nil {
		tb.Fatal(err)
	}
	return ctr
}

// The tentpole gate: over a grid of (stripes S, pool width, batch k), a
// concurrent fleet run hands out globally unique values in the right
// residue classes and the sum of per-stripe reads equals the sequential
// total — exact-count equivalence across S independent deployments.
func TestShardedClusterExactCount(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, cse := range []struct{ S, width, k int }{
		{1, 1, 1},
		{2, 2, 4},
		{3, 1, 8},
		{4, 2, 64},
	} {
		sc, stop, err := startStripes(topo, cse.S, 2)
		if err != nil {
			t.Fatal(err)
		}
		ctr := newFleet(t, sc, cse.width)

		const procs, batches = 6, 4
		vals := make([][]int64, procs)
		var wg sync.WaitGroup
		for pid := 0; pid < procs; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					var err error
					vals[pid], err = ctr.IncBatch(pid+b*procs, cse.k, vals[pid])
					if err != nil {
						t.Error(err)
						return
					}
					v, err := ctr.Inc(pid)
					if err != nil {
						t.Error(err)
						return
					}
					vals[pid] = append(vals[pid], v)
				}
			}(pid)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("S=%d width=%d k=%d: workload failed", cse.S, cse.width, cse.k)
		}

		var all []int64
		for _, v := range vals {
			all = append(all, v...)
		}
		total := int64(procs * batches * (cse.k + 1))
		if got := int64(len(all)); got != total {
			t.Fatalf("S=%d: %d values for %d ops", cse.S, len(all), total)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for i := 1; i < len(all); i++ {
			if all[i] == all[i-1] {
				t.Fatalf("S=%d: duplicate value %d", cse.S, all[i])
			}
		}
		// Residue discipline: pid's lone Inc lands in StripeOf(pid)'s class.
		for pid := 0; pid < procs; pid++ {
			want := int64(shard.StripeOf(pid, cse.S))
			if v := vals[pid][len(vals[pid])-1]; v%int64(cse.S) != want {
				t.Fatalf("S=%d: pid %d got %d outside residue class %d", cse.S, pid, v, want)
			}
		}
		// Exact-count read side: quiescent stripe reads sum to the total,
		// and the aggregate RPC bill is monotone and positive.
		got, err := ctr.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != total {
			t.Fatalf("S=%d: Read() = %d, want %d", cse.S, got, total)
		}
		var perStripe int64
		for i := 0; i < len(sc); i++ {
			v, err := ctr.Counter(i).Read()
			if err != nil {
				t.Fatal(err)
			}
			perStripe += v
		}
		if perStripe != total {
			t.Fatalf("S=%d: per-stripe reads sum to %d, want %d", cse.S, perStripe, total)
		}
		before := ctr.RPCs()
		if before <= 0 {
			t.Fatalf("S=%d: no RPCs billed", cse.S)
		}
		ctr.Close()
		if after := ctr.RPCs(); after != before {
			t.Fatalf("S=%d: RPCs fell from %d to %d across Close", cse.S, before, after)
		}
		stop()
	}
}

// Fuzz-style mixed Inc/Dec run: random single and batched operations on
// random pids; the quiescent aggregate read equals incs minus decs.
func TestShardedClusterMixedIncDec(t *testing.T) {
	for _, fam := range []struct {
		name string
		w, t int
	}{
		{"C(4,8)", 4, 8},
		{"C(8,16)", 8, 16},
	} {
		t.Run(fam.name, func(t *testing.T) {
			topo, err := core.New(fam.w, fam.t)
			if err != nil {
				t.Fatal(err)
			}
			sc, stop, err := startStripes(topo, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			ctr := newFleet(t, sc, 1)
			defer ctr.Close()

			rng := rand.New(rand.NewSource(11))
			var incs, decs int64
			for op := 0; op < 200; op++ {
				pid := rng.Intn(64)
				switch rng.Intn(4) {
				case 0:
					_, err = ctr.Inc(pid)
					incs++
				case 1:
					_, err = ctr.Dec(pid)
					decs++
				case 2:
					k := 1 + rng.Intn(9)
					_, err = ctr.IncBatch(pid, k, nil)
					incs += int64(k)
				default:
					k := 1 + rng.Intn(9)
					_, err = ctr.DecBatch(pid, k, nil)
					decs += int64(k)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := ctr.Read()
			if err != nil {
				t.Fatal(err)
			}
			if want := incs - decs; got != want {
				t.Fatalf("Read() = %d after %d incs / %d decs, want %d",
					got, incs, decs, want)
			}
		})
	}
}
