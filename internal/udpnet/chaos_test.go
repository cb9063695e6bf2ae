package udpnet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/wire"
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

// fastRetransmit keeps lossy tests quick without weakening the
// guarantee being tested.
func fastRetransmit(c *Cluster, attempts int) {
	c.SetRetransmitPolicy(wire.RetryPolicy{Attempts: attempts, Budget: 60 * time.Second},
		wire.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond})
}

// dropFirstSend swallows the first transmission of every datagram: each
// exchange must survive on its retransmit. The most deterministic loss
// pattern there is — 100% first-copy loss.
type dropFirstSend struct {
	net.Conn
	n atomic.Int32
}

func (d *dropFirstSend) Write(b []byte) (int, error) {
	if d.n.Add(1)%2 == 1 {
		return len(b), nil
	}
	return d.Conn.Write(b)
}

// Request loss: every packet's first copy vanishes, every exchange
// retransmits, and the counts stay exact with dense values — the
// baseline reliability claim.
func TestUDPRetransmitExactlyOnce(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster := startCluster(t, topo, 2)
	fastRetransmit(cluster, 8)
	cluster.SetDialWrapper(func(conn net.Conn) net.Conn { return &dropFirstSend{Conn: conn} })
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	vals, err := sess.IncBatch(0, 10, nil)
	if err != nil {
		t.Fatalf("total first-copy loss defeated the retransmit path: %v", err)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("values gapped or duplicated at %d: %v", i, vals)
		}
	}
	if n, err := sess.Read(); err != nil || n != 10 {
		t.Fatalf("Read = (%d, %v), want (10, nil)", n, err)
	}
	if sess.Retransmits() == 0 {
		t.Fatal("no retransmissions recorded under total first-copy loss")
	}
	if sess.Retransmits() < sess.Packets()/2 {
		t.Fatalf("retransmits %d < half of %d packets under 100%% first-copy loss",
			sess.Retransmits(), sess.Packets())
	}
}

// dropFirstResponse swallows the first response of every exchange on
// the read path: the server APPLIES the frames, the client never hears,
// retransmits the identical packet, and the shard must answer the
// duplicate from its dedup windows — replayed, not re-executed. The
// final count proves which happened.
type dropFirstResponse struct {
	net.Conn
	n atomic.Int32
}

func (d *dropFirstResponse) Read(b []byte) (int, error) {
	for {
		n, err := d.Conn.Read(b)
		if err != nil {
			return n, err
		}
		if d.n.Add(1)%2 == 1 {
			continue // swallow the first copy
		}
		return n, nil
	}
}

func TestUDPResponseLossReplaysNotReexecutes(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster := startCluster(t, topo, 1)
	fastRetransmit(cluster, 8)
	cluster.SetDialWrapper(func(conn net.Conn) net.Conn { return &dropFirstResponse{Conn: conn} })
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	vals, err := sess.IncBatch(0, 10, nil)
	if err != nil {
		t.Fatalf("response loss defeated the retransmit path: %v", err)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("values gapped or duplicated at %d: %v", i, vals)
		}
	}
	// Every mutating frame reached the shard TWICE (the original apply
	// and the retransmitted duplicate). If the duplicates re-executed,
	// this read overshoots 10.
	if n, err := sess.Read(); err != nil || n != 10 {
		t.Fatalf("Read = (%d, %v), want (10, nil) — duplicates re-executed", n, err)
	}
}

// The chaos grid: loss, duplication, reordering and delay injected on
// the packet path across every (loss% × S stripes × k) cell, with a
// concurrent workload — and the counts must come out EXACT: Σ shard
// reads equals the sequential total, and the claimed values have zero
// gaps and zero duplicates within every stripe's residue class. The
// cross-transport analogue of tcpnet's TestChaosSessionKillExactCountGrid,
// with the fault model a datagram transport actually faces.
func TestUDPChaosExactCountGrid(t *testing.T) {
	for _, loss := range []float64{0.10, 0.25} {
		for _, S := range []int{1, 2} {
			for _, k := range []int{1, 5} {
				t.Run(fmt.Sprintf("loss=%.0f%%/S=%d/k=%d", loss*100, S, k), func(t *testing.T) {
					topo, err := core.New(4, 8)
					if err != nil {
						t.Fatal(err)
					}
					sc, stop, err := startStripes(topo, S, 2)
					if err != nil {
						t.Fatal(err)
					}
					defer stop()
					faults := Faults{
						Drop: loss, Dup: 0.2, Reorder: 0.2,
						DelayProb: 0.1, Delay: 2 * time.Millisecond,
						Seed: int64(S*1000 + k),
					}
					for i := 0; i < S; i++ {
						fastRetransmit(sc[i], 25)
						sc[i].SetDialWrapper(faults.Wrapper())
					}
					ctr := newFleet(t, sc, 2)
					defer ctr.Close()
					ctr.SetRetryPolicy(10, 60*time.Second)

					const procs, per = 4, 6
					vals := make([][]int64, procs)
					var wg sync.WaitGroup
					for pid := 0; pid < procs; pid++ {
						wg.Add(1)
						go func(pid int) {
							defer wg.Done()
							for i := 0; i < per; i++ {
								var err error
								if k == 1 {
									var v int64
									v, err = ctr.Inc(pid)
									vals[pid] = append(vals[pid], v)
								} else {
									vals[pid], err = ctr.IncBatch(pid+i, k, vals[pid])
								}
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
					// Verify the exact count on FRESH fault-free sessions
					// (clearing the dial wrapper does not unwrap the
					// counter's pooled sockets), then the
					// zero-gap/zero-dup property.
					total := int64(procs * per * k)
					var got int64
					for i := 0; i < S; i++ {
						sc[i].SetDialWrapper(nil)
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
						t.Fatalf("Σ shard reads = %d, want %d", got, total)
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
						t.Fatal("chaos run recorded zero retransmissions — faults not exercised")
					}
				})
			}
		}
	}
}

// Close semantics match tcpnet: concurrent callers across Close see
// either their value or ErrClosed, never a raw socket error; later
// calls fail fast; Close is idempotent.
func TestUDPCounterCloseDuringFlights(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster := startCluster(t, topo, 2)
	ctr := cluster.NewCounter()

	const procs = 8
	var started sync.WaitGroup
	var wg sync.WaitGroup
	bad := make([]error, procs)
	started.Add(procs)
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			started.Done()
			for {
				_, err := ctr.Inc(pid)
				if err == nil {
					continue
				}
				if !errors.Is(err, ErrClosed) {
					bad[pid] = err
				}
				return
			}
		}(pid)
	}
	started.Wait()
	ctr.Close()
	wg.Wait()
	for pid, err := range bad {
		if err != nil {
			t.Fatalf("pid %d saw a non-sentinel error across Close: %v", pid, err)
		}
	}
	if _, err := ctr.Inc(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Inc after Close = %v, want ErrClosed", err)
	}
	if _, err := ctr.IncBatch(0, 4, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("IncBatch after Close = %v, want ErrClosed", err)
	}
	ctr.Close() // idempotent
}

// A shard that is down for the whole retransmit budget surfaces an
// error; after it returns on the SAME address the counter recovers
// (connected UDP sockets need no redial, but flights must stop failing).
func TestUDPCounterRecoversAfterShardRestart(t *testing.T) {
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
	cluster.SetRetransmitPolicy(wire.RetryPolicy{Attempts: 3, Budget: time.Second},
		wire.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond})
	ctr := cluster.NewCounter()
	defer ctr.Close()
	ctr.SetRetryPolicy(1, 0) // surface the outage instead of masking it
	if v, err := ctr.Inc(0); err != nil || v != 0 {
		t.Fatalf("first Inc = (%d, %v)", v, err)
	}
	s.Close()
	if _, err := ctr.Inc(0); err == nil {
		t.Fatal("Inc against a dead shard succeeded")
	}
	s2, err := StartShard(addr, topo, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Counter state restarts with the shard (it owns the cells), so
	// values begin at 0 again; retry until the socket path drains any
	// stale ICMP state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := ctr.Inc(0)
		if err == nil {
			if v != 0 {
				t.Fatalf("Inc after restart = %d, want 0", v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter never recovered after shard restart: %v", err)
		}
	}
}

// The dedup-horizon regression: a request datagram delivered late —
// after its retransmitted copy was applied and answered, and after more
// newer frames of the same client than the shard's dedup window holds —
// must be refused, not applied a second time. The window is made small
// and the delay long so every delayed packet lands past it; four
// concurrent flights share the counter's client id, so first sends that
// are merely late (their retransmit races siblings' newer sequences)
// must still execute. The count proves both: Σ shard reads == tokens.
func TestUDPDelayedDuplicateExactCount(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 20 * time.Millisecond
	cluster := startClusterCfg(t, topo, 2, ShardConfig{Workers: 2, Dedup: wire.DedupConfig{Window: 32}})
	fastRetransmit(cluster, 25)
	cluster.SetPipeline(4)
	cluster.SetDialWrapper(Faults{DelayProb: 0.02, Delay: delay, Seed: 13}.Wrapper())
	ctr := cluster.NewCounterPool(4)
	defer ctr.Close()

	const procs, per, k = 4, 150, 3
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			var vals []int64
			for i := 0; i < per; i++ {
				var err error
				if i%2 == 0 {
					_, err = ctr.Inc(pid)
				} else {
					vals, err = ctr.IncBatch(pid, k, vals[:0])
				}
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
	if ctr.Retransmits() == 0 {
		t.Fatal("no retransmissions recorded — the delay fault was not exercised")
	}
	// Every delayed datagram is delivered one delay after it was
	// written; the last of them must land before the count is read.
	time.Sleep(2 * delay)
	cluster.SetDialWrapper(nil)
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := sess.Read()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(procs * per / 2 * (1 + k)); got != want {
		t.Fatalf("Σ shard reads = %d, want %d — a late duplicate was applied again", got, want)
	}
}
