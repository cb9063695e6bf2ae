package distnet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/shard"
	"repro/internal/xport"
)

// newFleet deploys S independent emulations of build()'s network and
// stripes them with the shared fleet constructor; the cleanup closes the
// fleet's counters before stopping the servers under them.
func newFleet(t testing.TB, S int, build func() (*network.Network, error), cfg Config) *xport.ShardedCounter {
	t.Helper()
	clusters, stop, err := xport.StartStripes(S, func() (*Cluster, func(), error) {
		net, err := build()
		if err != nil {
			return nil, nil, err
		}
		cl := NewCluster(net, cfg)
		return cl, cl.Stop, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := xport.NewFleet(clusters, 0)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sc.Close()
		stop()
	})
	return sc
}

// The tentpole gate: for a grid of (stripes S, network width w, batch k),
// a concurrent sharded run hands out globally unique values in the right
// residue classes, and the sum of per-stripe reads equals the sequential
// total — exact-count equivalence across the whole fleet.
func TestShardedExactCount(t *testing.T) {
	for _, cse := range []struct{ S, w, t, k int }{
		{1, 4, 8, 1},
		{2, 4, 8, 4},
		{3, 8, 16, 8},
		{4, 8, 24, 64},
	} {
		sc := newFleet(t, cse.S, func() (*network.Network, error) {
			return core.New(cse.w, cse.t)
		}, Config{LinkBuffer: 2})
		const procs = 8
		batches := 6
		vals := make([][]int64, procs)
		var wg sync.WaitGroup
		for pid := 0; pid < procs; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					var err error
					if vals[pid], err = sc.IncBatch(pid+b*procs, cse.k, vals[pid]); err != nil {
						t.Error(err)
					}
					v, err := sc.Inc(pid)
					if err != nil {
						t.Error(err)
					}
					vals[pid] = append(vals[pid], v)
				}
			}(pid)
		}
		wg.Wait()

		var all []int64
		for _, v := range vals {
			all = append(all, v...)
		}
		total := int64(procs * batches * (cse.k + 1))
		if got := int64(len(all)); got != total {
			t.Fatalf("S=%d: %d values for %d ops", cse.S, got, total)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for i := 1; i < len(all); i++ {
			if all[i] == all[i-1] {
				t.Fatalf("S=%d: duplicate value %d", cse.S, all[i])
			}
		}
		// Residue discipline: the lone Inc of pid's last round lives in
		// stripe StripeOf(pid)'s residue class (batched rounds route by a
		// rotating pid, so only this value is pinned to pid's stripe).
		for pid := 0; pid < procs; pid++ {
			want := int64(shard.StripeOf(pid, cse.S))
			v := vals[pid][len(vals[pid])-1]
			if v%int64(cse.S) != want {
				t.Fatalf("S=%d: pid %d got value %d outside residue class %d",
					cse.S, pid, v, want)
			}
		}
		// Exact-count read-side aggregation: quiescent sum of stripe reads
		// equals the sequential total.
		if got, _ := sc.Read(); got != total {
			t.Fatalf("S=%d: Read() = %d, want %d", cse.S, got, total)
		}
		var perStripe int64
		for i := 0; i < sc.Stripes(); i++ {
			v, _ := sc.Counter(i).Read()
			perStripe += v
		}
		if perStripe != total {
			t.Fatalf("S=%d: per-stripe reads sum to %d, want %d", cse.S, perStripe, total)
		}
		if sc.RPCs() <= 0 {
			t.Fatalf("S=%d: no messages billed", cse.S)
		}
		if want := fmt.Sprintf("distshard%d:C(%d,%d)", cse.S, cse.w, cse.t); sc.Name() != want {
			t.Fatalf("fleet name %q, want %q", sc.Name(), want)
		}
	}
}

// Fuzz-style mixed Inc/Dec run per family: random single and batched
// operations, tokens and antitokens, on random pids; the quiescent
// aggregate read must equal increments minus decrements exactly.
func TestShardedMixedIncDec(t *testing.T) {
	for _, fam := range []struct {
		name  string
		build func() (*network.Network, error)
	}{
		{"C(4,8)", func() (*network.Network, error) { return core.New(4, 8) }},
		{"C(8,16)", func() (*network.Network, error) { return core.New(8, 16) }},
	} {
		t.Run(fam.name, func(t *testing.T) {
			const S = 3
			sc := newFleet(t, S, fam.build, Config{LinkBuffer: 2})
			rng := rand.New(rand.NewSource(7))
			var incs, decs int64
			for op := 0; op < 400; op++ {
				pid := rng.Intn(64)
				var err error
				switch rng.Intn(4) {
				case 0:
					_, err = sc.Inc(pid)
					incs++
				case 1:
					_, err = sc.Dec(pid)
					decs++
				case 2:
					k := 1 + rng.Intn(9)
					_, err = sc.IncBatch(pid, k, nil)
					incs += int64(k)
				default:
					k := 1 + rng.Intn(9)
					_, err = sc.DecBatch(pid, k, nil)
					decs += int64(k)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if got, _ := sc.Read(); got != incs-decs {
				t.Fatalf("Read() = %d after %d incs / %d decs, want %d",
					got, incs, decs, incs-decs)
			}
		})
	}
}

// A stripe's batched values re-map into its residue class: IncBatch then
// DecBatch on one pid revoke exactly the claimed multiset.
func TestShardedBatchRevokes(t *testing.T) {
	sc := newFleet(t, 4, func() (*network.Network, error) {
		return core.New(4, 8)
	}, Config{})
	claimed, err := sc.IncBatch(11, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	revoked, err := sc.DecBatch(11, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(claimed, func(i, j int) bool { return claimed[i] < claimed[j] })
	sort.Slice(revoked, func(i, j int) bool { return revoked[i] < revoked[j] })
	for i := range claimed {
		if claimed[i] != revoked[i] {
			t.Fatalf("revoked %v != claimed %v", revoked, claimed)
		}
	}
	if got, _ := sc.Read(); got != 0 {
		t.Fatalf("Read() = %d after full revocation, want 0", got)
	}
}
