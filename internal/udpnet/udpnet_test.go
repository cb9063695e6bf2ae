package udpnet

import (
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/seq"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// startCluster launches `shards` UDP shard servers on loopback and
// registers their shutdown with the test.
func startCluster(t *testing.T, topo *network.Network, shards int) *Cluster {
	t.Helper()
	c, stop, err := StartCluster(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return c
}

// The headline test: a C(4,8) counting network deployed across 3 UDP
// shards hands out dense unique values to concurrent client sessions.
func TestUDPCounterDense(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster := startCluster(t, topo, 3)

	const procs, per = 6, 50
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

// Batched pipelines on a live UDP cluster claim exactly the same dense
// value ranges as the in-memory batched counter: sequential equivalence
// against local replay, per constructor family — the layered datagram
// walk must be arithmetically identical to tcpnet's per-frame walk.
func TestUDPBatchMatchesLocal(t *testing.T) {
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
			cluster := startCluster(t, topo, 3)
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
				in := round % w
				got, err := sess.IncBatch(in, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				clear(tally)
				local.TraverseBatchInto(in, int64(k), tally)
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

// DecBatch revokes exactly what IncBatch claimed and rewinds the
// cluster to its origin; the READ side observes it all without
// mutating.
func TestUDPDecBatchRevokesAndRead(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster := startCluster(t, topo, 2)
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	claimed, err := sess.IncBatch(1, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // twice: reading must not mutate
		if n, err := sess.Read(); err != nil || n != 50 {
			t.Fatalf("Read #%d = (%d, %v), want (50, nil)", i, n, err)
		}
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
	if n, err := sess.Read(); err != nil || n != 0 {
		t.Fatalf("Read after full revocation = (%d, %v), want (0, nil)", n, err)
	}
	if v, err := sess.Inc(0); err != nil || v != 0 {
		t.Fatalf("Inc after full revocation = (%d, %v), want (0, nil)", v, err)
	}
}

// The cross-transport economics gate: at zero loss the UDP frame bill
// for a batched pipeline is IDENTICAL to tcpnet's round-trip bill for
// the same topology and batch (one STEPN per balancer touched, one
// CELLN per exit wire touched — the E25/E27 1.05 rpcs/token floor at
// k=64 carries over exactly), while the datagram bill is strictly
// smaller thanks to MTU packing.
func TestUDPBatchRPCsMatchTCPFloor(t *testing.T) {
	build := func() (*network.Network, error) { return core.New(8, 24) }
	topo, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cluster := startCluster(t, topo, 3)
	lossless(cluster)
	usess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer usess.Close()

	ttopo, err := build()
	if err != nil {
		t.Fatal(err)
	}
	tcluster, tstop, err := tcpnet.StartCluster(ttopo, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tstop()
	tsess, err := tcluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer tsess.Close()

	const batches, k = 16, 64
	for i := 0; i < batches; i++ {
		if _, err := usess.IncBatch(i, k, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := tsess.IncBatch(i, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if usess.RPCs() != tsess.RPCs() {
		t.Fatalf("frame bills diverge at zero loss: udp %d, tcp %d", usess.RPCs(), tsess.RPCs())
	}
	if usess.Retransmits() != 0 {
		t.Fatalf("lossless loopback run retransmitted %d packets", usess.Retransmits())
	}
	if p := usess.Packets(); p >= usess.RPCs() {
		t.Fatalf("packing won nothing: %d packets for %d frames", p, usess.RPCs())
	}
	t.Logf("k=%d: %d frames in %d datagrams (%.1f frames/packet), tcp bill %d rpcs",
		k, usess.RPCs(), usess.Packets(),
		float64(usess.RPCs())/float64(usess.Packets()), tsess.RPCs())
}

// sizeRecorder captures every request datagram's size.
type sizeRecorder struct {
	net.Conn
	mu    *sync.Mutex
	sizes *[]int
}

func (r *sizeRecorder) Write(b []byte) (int, error) {
	r.mu.Lock()
	*r.sizes = append(*r.sizes, len(b))
	r.mu.Unlock()
	return r.Conn.Write(b)
}

// Every datagram the session builds stays within the MTU budget, even
// for batches and cluster reads wide enough to need chunking.
func TestUDPPacketBudget(t *testing.T) {
	topo, err := core.New(16, 256) // 256 exit cells on few shards forces READ chunking
	if err != nil {
		t.Fatal(err)
	}
	cluster := startCluster(t, topo, 2)
	var mu sync.Mutex
	var sizes []int
	cluster.SetDialWrapper(func(conn net.Conn) net.Conn {
		return &sizeRecorder{Conn: conn, mu: &mu, sizes: &sizes}
	})
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.IncBatch(0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := sess.Read(); err != nil || n != 4096 {
		t.Fatalf("Read = (%d, %v), want (4096, nil)", n, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) == 0 {
		t.Fatal("recorded no datagrams")
	}
	for i, n := range sizes {
		if n > wire.MaxDatagram {
			t.Fatalf("datagram %d is %d bytes, budget %d", i, n, wire.MaxDatagram)
		}
	}
}

// Malformed or violating packets are dropped without a reply and
// without corrupting state: garbage, truncation, v1 mutating ops,
// v2 frames with no HELLO, zero counts, unowned ids. The shard keeps
// serving well-formed sessions throughout.
func TestUDPMalformedPackets(t *testing.T) {
	topo, err := core.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster := startCluster(t, topo, 1)
	addr := cluster.addrs[0]

	send := func(t *testing.T, pkt []byte) {
		t.Helper()
		conn, err := net.Dial("udp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
		var buf [64]byte
		if n, err := conn.Read(buf[:]); err == nil {
			t.Fatalf("shard replied %d bytes to a violating packet", n)
		}
	}
	hello := wire.Frame{Op: wire.OpHello, Client: 77}
	pack := func(frames ...wire.Frame) []byte {
		return wire.AppendPacket(nil, 1, frames)
	}
	t.Run("garbage", func(t *testing.T) { send(t, []byte{1, 2, 3, 4, 5, 6, 7, 8, 99}) })
	t.Run("short", func(t *testing.T) { send(t, []byte{1, 2, 3}) })
	t.Run("truncated-frame", func(t *testing.T) {
		pkt := pack(hello, wire.Frame{Op: wire.OpStepN2, ID: 0, Seq: 1, N: 4})
		send(t, pkt[:len(pkt)-3])
	})
	t.Run("v1-mutating", func(t *testing.T) {
		send(t, pack(hello, wire.Frame{Op: wire.OpStepN, ID: 0, N: 4}))
	})
	t.Run("v2-before-hello", func(t *testing.T) {
		send(t, pack(wire.Frame{Op: wire.OpStep2, ID: 0, Seq: 1}))
	})
	t.Run("zero-count", func(t *testing.T) {
		send(t, pack(hello, wire.Frame{Op: wire.OpStepN2, ID: 0, Seq: 1, N: 0}))
	})
	t.Run("unowned-id", func(t *testing.T) {
		send(t, pack(hello, wire.Frame{Op: wire.OpStep2, ID: 9999, Seq: 1}))
	})
	t.Run("unowned-read", func(t *testing.T) {
		send(t, pack(wire.Frame{Op: wire.OpRead, ID: 9999}))
	})

	// The shard is still healthy, and the violating packets mutated
	// nothing: a well-formed session starts from value 0.
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if v, err := sess.Inc(0); err != nil || v != 0 {
		t.Fatalf("Inc after malformed traffic = (%d, %v), want (0, nil)", v, err)
	}
}

// DedupConfig threads down to the UDP shard's exactly-once table.
func TestUDPDedupConfigThreaded(t *testing.T) {
	topo, err := core.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ShardConfig{Dedup: wire.DedupConfig{Window: 16, Clients: 4}}
	s, err := StartShardConfig("127.0.0.1:0", topo, 0, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.core.Dedup().Config(); got.Window != cfg.Dedup.Window || got.Clients != cfg.Dedup.Clients {
		t.Fatalf("shard dedup config = %+v, want %+v", got, cfg.Dedup)
	}
	cluster := NewCluster(topo, []string{s.Addr()})
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if v, err := sess.Inc(0); err != nil || v != 0 {
		t.Fatalf("Inc = (%d, %v), want (0, nil)", v, err)
	}
}
