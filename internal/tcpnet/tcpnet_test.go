package tcpnet

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/seq"
	"repro/internal/wire"
)

// startCluster launches `shards` shard servers on loopback for the given
// topology and returns the client cluster plus a shutdown func.
func startCluster(tb testing.TB, topo *network.Network, shards int) (*Cluster, func()) {
	tb.Helper()
	c, stop, err := StartCluster(topo, shards)
	if err != nil {
		tb.Fatal(err)
	}
	return c, stop
}

// The headline test: a C(4,8) counting network deployed across 3 TCP
// shards hands out dense unique values to concurrent client sessions.
func TestDistributedCounterDense(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 3)
	defer stop()

	const procs, per = 6, 150
	vals := make([][]int64, procs)
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			sess, err := cluster.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			for i := 0; i < per; i++ {
				v, err := sess.Inc(pid)
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
		return
	}
	var all []int64
	for _, s := range vals {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("values not dense at %d: %d", i, v)
		}
	}
}

// Per-session sequential behaviour matches the in-memory network exactly.
func TestDistributedMatchesLocal(t *testing.T) {
	topo, err := core.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 2)
	defer stop()
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	local, err := core.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	localCells := []int64{0, 1, 2, 3}
	for i := 0; i < 60; i++ {
		got, err := sess.Inc(i)
		if err != nil {
			t.Fatal(err)
		}
		wire := local.Traverse(i % 4)
		want := localCells[wire]
		localCells[wire] += 4
		if got != want {
			t.Fatalf("op %d: distributed %d, local %d", i, got, want)
		}
	}
}

// Exit distribution across wires keeps the step property.
func TestDistributedStepProperty(t *testing.T) {
	topo, err := core.New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 4)
	defer stop()
	if cluster.Hops() != topo.Depth()+1 {
		t.Fatalf("hops = %d", cluster.Hops())
	}

	counts := make([]int64, 16)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for pid := 0; pid < 8; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			sess, err := cluster.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			for i := 0; i < 100; i++ {
				v, err := sess.Inc(pid)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				counts[v%16]++
				mu.Unlock()
			}
		}(pid)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// 800 tokens, 16 wires: values mod 16 identify exit cells; dense
	// values 0..799 mean exactly 50 per residue class.
	if !seq.IsStep(counts) {
		t.Fatalf("exit counts %v not step", counts)
	}
}

// Batched pipelines on a live cluster claim exactly the same dense value
// ranges as the in-memory batched counter: sequential equivalence against
// counter-free local replay, per constructor family.
func TestBatchMatchesLocal(t *testing.T) {
	for _, fam := range []struct {
		name  string
		build func() (*network.Network, error)
	}{
		{"C(4,8)", func() (*network.Network, error) { return core.New(4, 8) }},
		{"C(8,16)", func() (*network.Network, error) { return core.New(8, 16) }},
	} {
		t.Run(fam.name, func(t *testing.T) {
			topo, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			cluster, stop := startCluster(t, topo, 3)
			defer stop()
			sess, err := cluster.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			local, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			w := topo.InWidth()
			tally := make([]int64, topo.OutWidth())
			cells := make([]int64, topo.OutWidth())
			for i := range cells {
				cells[i] = int64(i)
			}
			stride := int64(topo.OutWidth())
			for round, k := range []int{5, 1, 17, 64, 3} {
				wire := round % w
				got, err := sess.IncBatch(wire, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Local replay: batched traversal plus cell arithmetic.
				clear(tally)
				local.TraverseBatchInto(wire, int64(k), tally)
				var want []int64
				for i, cnt := range tally {
					for j := int64(0); j < cnt; j++ {
						want = append(want, cells[i]+j*stride)
					}
					cells[i] += cnt * stride
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if !seq.Equal(got, want) {
					t.Fatalf("round %d: cluster batch %v, local replay %v", round, got, want)
				}
			}
		})
	}
}

// Concurrent batched sessions still hand out exactly {0..m-1}.
func TestBatchedSessionsDense(t *testing.T) {
	topo, err := core.New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 3)
	defer stop()

	const procs, batches, k = 6, 10, 16
	vals := make([][]int64, procs)
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			sess, err := cluster.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			for i := 0; i < batches; i++ {
				var err error
				vals[pid], err = sess.IncBatch(pid+i, k, vals[pid])
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var all []int64
	for _, v := range vals {
		all = append(all, v...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("batched values not dense at %d: %d", i, v)
		}
	}
}

// DecBatch revokes exactly what IncBatch claimed and rewinds the cluster
// to its origin; antitoken frames share the batched protocol.
func TestDecBatchRevokes(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 2)
	defer stop()
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	claimed, err := sess.IncBatch(1, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	revoked, err := sess.DecBatch(2, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(claimed, func(i, j int) bool { return claimed[i] < claimed[j] })
	sort.Slice(revoked, func(i, j int) bool { return revoked[i] < revoked[j] })
	if !seq.Equal(claimed, revoked) {
		t.Fatalf("revoked %v != claimed %v", revoked, claimed)
	}
	// Cluster back at the origin: the next single Inc must return 0, and
	// single Dec must revoke it again.
	v, err := sess.Inc(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("Inc after full revocation = %d, want 0", v)
	}
	d, err := sess.Dec(0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("Dec after Inc = %d, want 0", d)
	}
}

// The headline economics: k tokens as one pipeline cost at least 5x fewer
// round trips than k singles (exact RPC counts, not timing).
func TestBatchRPCsPerToken(t *testing.T) {
	topo, err := core.New(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 3)
	defer stop()
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const k = 64
	for i := 0; i < k; i++ {
		if _, err := sess.Inc(0); err != nil {
			t.Fatal(err)
		}
	}
	single := sess.RPCs()
	if want := int64(k * cluster.Hops()); single != want {
		t.Fatalf("single-token RPCs = %d, want %d", single, want)
	}
	if _, err := sess.IncBatch(0, k, nil); err != nil {
		t.Fatal(err)
	}
	batch := sess.RPCs() - single
	if batch*5 > single {
		t.Fatalf("RPCs per token: batched %d/%d vs single %d/%d — below the 5x floor",
			batch, k, single, k)
	}
	t.Logf("k=%d: %d RPCs batched vs %d singles (%.1fx)", k, batch, single,
		float64(single)/float64(batch))
}

// Batched frame edge cases: k=0 and k<0 are no-ops without round trips;
// k=1 behaves exactly like a single-token Inc.
func TestBatchEdgeSizes(t *testing.T) {
	topo, err := core.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 2)
	defer stop()
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if got, err := sess.IncBatch(0, 0, nil); err != nil || len(got) != 0 {
		t.Fatalf("IncBatch k=0 = (%v, %v)", got, err)
	}
	if got, err := sess.DecBatch(0, -5, nil); err != nil || len(got) != 0 {
		t.Fatalf("DecBatch k<0 = (%v, %v)", got, err)
	}
	if got := sess.RPCs(); got != 0 {
		t.Fatalf("empty batches performed %d RPCs", got)
	}
	one, err := sess.IncBatch(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != 0 {
		t.Fatalf("IncBatch k=1 = %v, want [0]", one)
	}
	v, err := sess.Inc(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("Inc after IncBatch(1) = %d, want 1", v)
	}
}

// Protocol violations drop the connection rather than corrupting state:
// unknown op, zero batch count, unowned balancer id, and a partial frame
// (client dies mid-request). The shard must survive all of them and keep
// serving well-formed sessions.
func TestMalformedFrames(t *testing.T) {
	topo, err := core.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 1)
	defer stop()
	addr := cluster.addrs[0]

	send := func(t *testing.T, frame []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		// The shard must close the connection without replying.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var buf [8]byte
		if n, err := conn.Read(buf[:]); err == nil {
			t.Fatalf("shard replied %d bytes to a malformed frame", n)
		}
	}
	rawFrame := func(op byte, id int32, n int64) []byte {
		b := make([]byte, 13)
		b[0] = op
		binary.BigEndian.PutUint32(b[1:5], uint32(id))
		binary.BigEndian.PutUint64(b[5:], uint64(n))
		return b
	}
	hello := wire.AppendFrame(nil, &wire.Frame{Op: wire.OpHello, Client: 77})
	t.Run("unknown-op", func(t *testing.T) { send(t, rawFrame(99, 0, 1)[:5]) })
	t.Run("zero-count", func(t *testing.T) { send(t, rawFrame(wire.OpStepN, 0, 0)) })
	t.Run("minint-count", func(t *testing.T) { send(t, rawFrame(wire.OpStepN, 0, math.MinInt64)) })
	t.Run("minint-cell", func(t *testing.T) { send(t, rawFrame(wire.OpCellN, 0, math.MinInt64)) })
	t.Run("unowned-id", func(t *testing.T) { send(t, rawFrame(wire.OpStepN, 9999, 4)) })
	t.Run("unowned-cell", func(t *testing.T) { send(t, rawFrame(wire.OpCellN, 0x7fff, 4)) })
	t.Run("unowned-read", func(t *testing.T) { send(t, rawFrame(wire.OpRead, 9999, 0)[:5]) })
	t.Run("v2-before-hello", func(t *testing.T) {
		// A seq-numbered mutating frame on a connection that never sent
		// HELLO has no dedup window to land in: dropped.
		send(t, wire.AppendFrame(nil, &wire.Frame{Op: wire.OpStepN2, ID: 0, Seq: 1, N: 4}))
	})
	t.Run("v2-zero-count", func(t *testing.T) {
		send(t, append(hello[:len(hello):len(hello)],
			wire.AppendFrame(nil, &wire.Frame{Op: wire.OpStepN2, ID: 0, Seq: 1, N: 0})...))
	})
	t.Run("v2-minint-count", func(t *testing.T) {
		send(t, append(hello[:len(hello):len(hello)],
			wire.AppendFrame(nil, &wire.Frame{Op: wire.OpCellN2, ID: 0, Seq: 1, N: math.MinInt64})...))
	})
	t.Run("v2-unowned-id", func(t *testing.T) {
		send(t, append(hello[:len(hello):len(hello)],
			wire.AppendFrame(nil, &wire.Frame{Op: wire.OpStep2, ID: 9999, Seq: 1})...))
	})
	t.Run("partial-frame", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte{wire.OpStepN, 0, 0}); err != nil {
			t.Fatal(err)
		}
		conn.Close() // die mid-request
	})

	// The shard is still healthy: a well-formed session works.
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if v, err := sess.Inc(0); err != nil || v != 0 {
		t.Fatalf("Inc after malformed traffic = (%d, %v), want (0, nil)", v, err)
	}
}

// The coalescing counter client: concurrent Inc callers merge into
// batched pipelines, values stay {0..m-1}, and the cluster-wide RPC count
// lands below the uncoalesced cost of the same workload.
func TestCounterCoalesced(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 2)
	defer stop()
	ctr := cluster.NewCounter()
	defer ctr.Close()

	const procs, per = 16, 100
	vals := make([][]int64, procs)
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
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
		return
	}
	var all []int64
	for _, v := range vals {
		all = append(all, v...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("coalesced values not dense at %d: %d", i, v)
		}
	}
	uncoalesced := int64(procs * per * cluster.Hops())
	got := ctr.RPCs()
	if got >= uncoalesced {
		t.Fatalf("coalescing saved nothing: %d RPCs for %d ops (uncoalesced %d)",
			got, procs*per, uncoalesced)
	}
	t.Logf("RPCs: %d coalesced vs %d uncoalesced (%.1fx fewer)", got, uncoalesced,
		float64(uncoalesced)/float64(got))
	// The RPC bill is monotone: closing the sessions must not erase it.
	ctr.Close()
	if after := ctr.RPCs(); after != got {
		t.Fatalf("RPCs dropped from %d to %d after Close", got, after)
	}
}

// A failed flight evicts its session: after the shard comes back on the
// same address, the next Inc on that wire redials instead of reusing the
// dead (and possibly desynced) connections forever.
func TestCounterRedialsAfterShardRestart(t *testing.T) {
	topo, err := core.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartShard("127.0.0.1:0", topo, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	cluster := NewCluster(topo, []string{addr})
	ctr := cluster.NewCounter()
	defer ctr.Close()
	if v, err := ctr.Inc(0); err != nil || v != 0 {
		t.Fatalf("first Inc = (%d, %v)", v, err)
	}
	s.Close()
	if _, err := ctr.Inc(0); err == nil {
		t.Fatal("Inc against a dead shard succeeded")
	}
	// Restart on the same address; counter state restarts with it (the
	// shard owns the cells), so values begin at 0 again.
	s2, err := StartShard(addr, topo, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, err := ctr.Inc(0)
	if err != nil {
		t.Fatalf("Inc after shard restart: %v", err)
	}
	if v != 0 {
		t.Fatalf("Inc after restart = %d, want 0", v)
	}
}

func TestSessionDialFailure(t *testing.T) {
	topo, err := core.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(topo, []string{"127.0.0.1:1"}) // nothing listens
	if _, err := cluster.NewSession(); err == nil {
		t.Fatal("dial to dead shard succeeded")
	}
}

// The protocol-version bump keeps v1 frames decodable: a raw client
// speaking the stateless v1 ops (no HELLO, no sequence numbers) gets
// correct replies from the same shard that serves v2 sessions, and the
// two interleave on shared balancer/cell state. The codec distinguishes
// the versions by op byte alone.
func TestLegacyFramesStillServed(t *testing.T) {
	topo, err := core.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 1)
	defer stop()

	conn, err := net.Dial("tcp", cluster.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rpc := func(f *wire.Frame) int64 {
		t.Helper()
		if _, err := conn.Write(wire.AppendFrame(nil, f)); err != nil {
			t.Fatal(err)
		}
		var resp [8]byte
		if _, err := io.ReadFull(conn, resp[:]); err != nil {
			t.Fatal(err)
		}
		return int64(binary.BigEndian.Uint64(resp[:]))
	}
	stride := int64(topo.OutWidth())
	legacyInc := func(in int) int64 {
		t.Helper()
		node, port := topo.InputDest(in)
		for node >= 0 {
			p := rpc(&wire.Frame{Op: wire.OpStep, ID: int32(node)})
			node, port = topo.Dest(node, int(p))
		}
		return rpc(&wire.Frame{Op: wire.OpCell, ID: int32(port) | int32(stride)<<16})
	}

	// v1 and v2 traffic interleave on the same counter state (the
	// pooled Counter speaks v2: HELLO plus seq-numbered frames).
	if v := legacyInc(0); v != 0 {
		t.Fatalf("legacy Inc #1 = %d, want 0", v)
	}
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()
	if v, err := ctr.Inc(0); err != nil || v != 1 {
		t.Fatalf("v2 Inc between legacy Incs = (%d, %v), want (1, nil)", v, err)
	}
	if v := legacyInc(0); v != 2 {
		t.Fatalf("legacy Inc #2 = %d, want 2", v)
	}

	// v1 batched and read frames: CELLN's reply is the cell value after
	// the add, and READ observes exactly that, seq-free on both sides.
	cellID := int32(0) | int32(stride)<<16
	before := rpc(&wire.Frame{Op: wire.OpRead, ID: 0})
	after := rpc(&wire.Frame{Op: wire.OpCellN, ID: cellID, N: 2})
	if after != before+2*stride {
		t.Fatalf("legacy CELLN = %d, want %d", after, before+2*stride)
	}
	if got := rpc(&wire.Frame{Op: wire.OpRead, ID: 0}); got != after {
		t.Fatalf("legacy READ after CELLN = %d, want %d", got, after)
	}
}

func TestShardCloseIdempotentEnough(t *testing.T) {
	topo, err := core.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartShard("127.0.0.1:0", topo, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // must terminate cleanly with no clients
}
