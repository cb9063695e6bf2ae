package udpnet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/wire"
	"repro/internal/xport"
)

func startClusterCfg(t *testing.T, topo *network.Network, shards int, cfg ShardConfig) *Cluster {
	t.Helper()
	c, stop, err := StartClusterConfig(topo, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return c
}

// lossless gives a fixture that bills exact frame counts on loopback the
// 1 s retransmit timer bench/'s udp-k64 uses: the default 15 ms timer
// reads a guest stall as loss, and Session.RPCs counts the frames of a
// retransmitted copy, so the bill would read scheduling, not the
// protocol. Call before the counter or session is built.
func lossless(c *Cluster) {
	c.SetRetransmitPolicy(
		wire.RetryPolicy{Attempts: DefaultRetransmitAttempts, Budget: DefaultRetransmitBudget},
		wire.Backoff{Base: time.Second, Max: time.Second})
}

// The pipelining gate: sessions with a window deeper than one — several
// outstanding request datagrams per socket, matched by request id —
// driven through reorder-heavy fault grids against worker-pool shards,
// and the counts must come out EXACT: Σ shard reads equals the
// sequential total and the claimed values have zero gaps and zero
// duplicates within every stripe's residue class. Reordering is the
// fault pipelining is most exposed to (replies and retransmitted
// duplicates interleave across the whole window, not one exchange),
// so this is the adversarial case for the id-demux path.
func TestUDPPipelineReorderExactCount(t *testing.T) {
	for _, depth := range []int{2, 4} {
		for _, S := range []int{1, 2} {
			t.Run(fmt.Sprintf("depth=%d/S=%d", depth, S), func(t *testing.T) {
				topo, err := core.New(4, 8)
				if err != nil {
					t.Fatal(err)
				}
				sc, stop, err := xport.StartStripes(S, func() (*Cluster, func(), error) {
					return StartClusterConfig(topo, 2, ShardConfig{Workers: 4})
				})
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				faults := Faults{
					Drop: 0.10, Dup: 0.2, Reorder: 0.35,
					DelayProb: 0.1, Delay: 2 * time.Millisecond,
					Seed: int64(depth*100 + S),
				}
				for i := 0; i < S; i++ {
					fastRetransmit(sc[i], 25)
					sc[i].SetDialWrapper(faults.Wrapper())
					sc[i].SetPipeline(depth)
				}
				ctr := newFleet(t, sc, 2)
				defer ctr.Close()
				ctr.SetRetryPolicy(10, 60*time.Second)

				const procs, per, k = 4, 4, 8
				vals := make([][]int64, procs)
				var wg sync.WaitGroup
				for pid := 0; pid < procs; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							var err error
							vals[pid], err = ctr.IncBatch(pid+i, k, vals[pid])
							if err != nil {
								t.Errorf("pid %d op %d: %v", pid, i, err)
								return
							}
						}
					}(pid)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				// Reconcile on fresh fault-free window-1 sessions:
				// whatever the pipelined windows retransmitted, duplicated
				// or reordered, the shards' dedup windows must have
				// absorbed it all.
				total := int64(procs * per * k)
				var got int64
				for i := 0; i < S; i++ {
					sc[i].SetDialWrapper(nil)
					sc[i].SetPipeline(1)
					sess, err := sc[i].NewSession()
					if err != nil {
						t.Fatal(err)
					}
					v, err := sess.Read()
					sess.Close()
					if err != nil {
						t.Fatal(err)
					}
					got += v
				}
				if got != total {
					t.Fatalf("Σ shard reads = %d, want %d (sequential total)", got, total)
				}
				byStripe := make(map[int64][]int64)
				count := 0
				for _, vs := range vals {
					for _, v := range vs {
						byStripe[v%int64(S)] = append(byStripe[v%int64(S)], v)
						count++
					}
				}
				if int64(count) != total {
					t.Fatalf("collected %d values, want %d", count, total)
				}
				for s, vs := range byStripe {
					sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
					for j, v := range vs {
						if want := int64(j)*int64(S) + s; v != want {
							t.Fatalf("stripe %d gapped or duplicated at %d: got %d, want %d",
								s, j, v, want)
						}
					}
				}
				if ctr.Retransmits() == 0 {
					t.Fatal("pipelined chaos run recorded zero retransmissions — faults not exercised")
				}
			})
		}
	}
}

// The window depth must not change a single bill: at zero loss a
// session sends exactly the same frames in exactly the same datagrams
// at every depth — a deeper window only lets more of them travel at
// once. This is what keeps the E25-E28 rpcs/token floors valid at any
// depth. Two fleets: the E-series C(8,24) on 3 shards, where every
// shard's share of a phase fits one datagram, and C(16,256) on 1 shard,
// where a phase needs several and the window actually fills.
func TestUDPPipelineRPCFloorMatchesSerial(t *testing.T) {
	type bill struct {
		op            string
		rpcs, packets int64
	}
	for _, fleet := range []struct {
		w, t, shards, k int
	}{{8, 24, 3, 64}, {16, 256, 1, 4096}} {
		topo, err := core.New(fleet.w, fleet.t)
		if err != nil {
			t.Fatal(err)
		}
		bills := func(depth int) []bill {
			t.Helper()
			cluster := startClusterCfg(t, topo, fleet.shards, ShardConfig{Workers: 4})
			cluster.SetPipeline(depth)
			lossless(cluster)
			sess, err := cluster.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var out []bill
			for _, op := range []struct {
				name string
				run  func() (int, error)
			}{
				{"IncBatch", func() (int, error) { vs, err := sess.IncBatch(0, fleet.k, nil); return len(vs), err }},
				{"Inc", func() (int, error) { _, err := sess.Inc(1); return 1, err }},
				{"Dec", func() (int, error) { _, err := sess.Dec(2); return 1, err }},
				{"Read", func() (int, error) { n, err := sess.Read(); return int(n), err }},
			} {
				r0, p0 := sess.RPCs(), sess.Packets()
				got, err := op.run()
				if err != nil {
					t.Fatal(err)
				}
				if want := map[string]int{"IncBatch": fleet.k, "Inc": 1, "Dec": 1, "Read": fleet.k}[op.name]; got != want {
					t.Fatalf("depth %d: %s yielded %d, want %d", depth, op.name, got, want)
				}
				out = append(out, bill{op.name, sess.RPCs() - r0, sess.Packets() - p0})
			}
			if sess.Retransmits() != 0 {
				t.Fatalf("depth %d: lossless loopback run retransmitted %d packets", depth, sess.Retransmits())
			}
			return out
		}
		base := bills(1)
		for _, depth := range []int{2, 4, 8} {
			for i, b := range bills(depth) {
				if b != base[i] {
					t.Fatalf("C(%d,%d): %s bill diverged: window 1 sent %d rpcs in %d packets, window %d sent %d in %d",
						fleet.w, fleet.t, b.op, base[i].rpcs, base[i].packets, depth, b.rpcs, b.packets)
				}
			}
		}
		t.Logf("C(%d,%d) on %d shards, every depth: %+v", fleet.w, fleet.t, fleet.shards, base)
	}
}

// The shared-buffer regression gate: before the worker pool, serve()
// reused ONE receive buffer across iterations and handed it to the
// processing path — with Workers > 1 that is a data race (a worker
// decoding packet n while the reader overwrites it with packet n+1)
// and the race detector fails the unpooled design on this exact
// workload. The pooled pipeline gives every packet its own buffer end
// to end: concurrent clients against a 4-worker shard must stay exact
// with -race silent.
func TestUDPShardWorkersBufferIsolation(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster := startClusterCfg(t, topo, 1, ShardConfig{Workers: 4, Batch: 4})

	const procs, per, k = 8, 4, 8
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			sess, err := cluster.NewSession()
			if err != nil {
				errs[pid] = err
				return
			}
			defer sess.Close()
			for i := 0; i < per; i++ {
				if _, err := sess.IncBatch(pid+i, k, nil); err != nil {
					errs[pid] = err
					return
				}
				if _, err := sess.Read(); err != nil {
					errs[pid] = err
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	for pid, err := range errs {
		if err != nil {
			t.Fatalf("pid %d: %v", pid, err)
		}
	}
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	total, err := sess.Read()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(procs * per * k); total != want {
		t.Fatalf("Read = %d, want %d — packets corrupted or double-applied under workers", total, want)
	}
}

// The shard's packet buffers survive garbage collection: a buffer put on
// the free list is the one a later get returns, however many collections
// ran in between. A sync.Pool empties itself across two GCs, so the
// shard re-allocated its buffers after every collection.
func TestUDPShardBufPoolSurvivesGC(t *testing.T) {
	var bp bufPool
	const k = 8
	put := make(map[*[shardBufSize]byte]bool, k)
	for i := 0; i < k; i++ {
		b := new([shardBufSize]byte)
		put[b] = true
		bp.put(b)
	}
	runtime.GC()
	runtime.GC()
	for i := 0; i < k; i++ {
		b := bp.get()
		if !put[b] {
			t.Fatalf("get %d after GC returned a fresh buffer, not one that was put", i)
		}
		delete(put, b)
	}
}

// The free list never outgrows what the pipeline can hold in flight:
// after a saturating concurrent load on a two-worker shard with tiny
// bursts, the buffers it keeps are no more than bufBound.
func TestUDPShardBufPoolBound(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ShardConfig{Workers: 2, Batch: 2}
	shard, err := StartShardConfig("127.0.0.1:0", topo, 0, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	cluster := NewCluster(topo, []string{shard.Addr()})
	cluster.SetPipeline(4)

	const procs, per, k = 8, 16, 16
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			sess, err := cluster.NewSession()
			if err != nil {
				errs[pid] = err
				return
			}
			defer sess.Close()
			for i := 0; i < per && errs[pid] == nil; i++ {
				_, errs[pid] = sess.IncBatch(pid+i, k, nil)
			}
		}(pid)
	}
	wg.Wait()
	for pid, err := range errs {
		if err != nil {
			t.Fatalf("pid %d: %v", pid, err)
		}
	}
	for shard.inflight.Load() > 0 {
		runtime.Gosched()
	}
	shard.pool.mu.Lock()
	held := len(shard.pool.free)
	shard.pool.mu.Unlock()
	if bound := bufBound(cfg.Workers, cfg.Batch); held == 0 || held > bound {
		t.Fatalf("free list holds %d buffers after load, want 1..%d", held, bound)
	}
	t.Logf("free list holds %d buffers (bound %d)", held, bufBound(cfg.Workers, cfg.Batch))
}
