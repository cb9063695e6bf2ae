package tcpnet

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// killOnOp is a net.Conn that drops the connection when the (skip+1)-th
// frame with the given op byte is about to be written — a kill at an
// exact frame boundary, after part of the window has been applied.
type killOnOp struct {
	net.Conn
	op   byte
	skip atomic.Int32
}

func newKillOnOp(conn net.Conn, op byte, skip int32) *killOnOp {
	k := &killOnOp{Conn: conn, op: op}
	k.skip.Store(skip)
	return k
}

func (k *killOnOp) Write(b []byte) (int, error) {
	if len(b) > 0 && b[0] == k.op && k.skip.Add(-1) < 0 {
		k.Conn.Close()
		return 0, errInjected
	}
	return k.Conn.Write(b)
}

// The leak PR 3 documented, as a failing-then-fixed test: a window that
// dies mid-flight re-sends every frame on a fresh session, and without
// the dedup windows the shard re-executes the frames the dead session
// had already applied — balancers double-step and cells double-add, so
// values leak. The kill lands after every STEPN and two CELLNs have been
// applied (the worst case: the dead session already moved balancers AND
// claimed values from two cells). With seq-numbered idempotent frames
// the retried window claims EXACTLY its values: Read() equals the op
// count and the value set is dense.
func TestRetryExactlyOnce(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 1)
	defer stop()
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()

	first, err := ctr.Inc(0)
	if err != nil {
		t.Fatal(err)
	}

	// Local mirror: the remote walk is deterministic, so the number of
	// exit cells the window touches is exactly the local tally's — the
	// test needs at least three for the kill to land mid-CELLN.
	const k = 10
	local, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	local.Traverse(0) // replay the first Inc
	tally := make([]int64, local.OutWidth())
	local.TraverseBatchInto(0, k, tally)
	cells := 0
	for _, c := range tally {
		if c != 0 {
			cells++
		}
	}
	if cells < 3 {
		t.Fatalf("test needs >= 3 touched cells to die mid-CELLN, got %d", cells)
	}

	sess := idleSession(t, ctr)
	sess.conns[0] = newKillOnOp(sess.conns[0], wire.OpCellN2, 2)

	vals, err := ctr.IncBatch(0, k, nil)
	if err != nil {
		t.Fatalf("mid-window connection death surfaced: %v", err)
	}
	vals = append(vals, first)
	if len(vals) != k+1 {
		t.Fatalf("got %d values, want %d", len(vals), k+1)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("values gapped or duplicated at %d: %v", i, vals)
		}
	}
	got, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != k+1 {
		t.Fatalf("Read() = %d, want %d — the retry leaked values", got, k+1)
	}
}

// A kill during the balancer phase (before any cell is touched) must
// also stay exactly-once: without dedup the re-run STEPNs would move the
// balancers twice and skew the exit pattern against the client's local
// split arithmetic.
func TestRetryExactlyOnceMidSteps(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 1)
	defer stop()
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()
	if _, err := ctr.Inc(0); err != nil {
		t.Fatal(err)
	}
	sess := idleSession(t, ctr)
	sess.conns[0] = newKillOnOp(sess.conns[0], wire.OpStepN2, 2)

	vals, err := ctr.IncBatch(0, 10, nil)
	if err != nil {
		t.Fatalf("mid-step connection death surfaced: %v", err)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, v := range vals {
		if v != int64(i+1) {
			t.Fatalf("values gapped or duplicated at %d: %v", i, vals)
		}
	}
	if got, err := ctr.Read(); err != nil || got != 11 {
		t.Fatalf("Read() = (%d, %v), want (11, nil)", got, err)
	}
}

// Client-registration churn must not break a live Counter's
// exactly-once guarantee: its dedup entries are pinned by the bound
// connections, so even DedupClients+ later registrations evict only
// unpinned clients, and a post-churn mid-window kill still retries
// without leaking values.
func TestDedupSurvivesClientChurn(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 1)
	defer stop()
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()
	if _, err := ctr.Inc(0); err != nil {
		t.Fatal(err)
	}

	// Churn: one raw connection cycling through DedupClients+64 fresh
	// client ids (each HELLO rebinds, unpinning the previous id). A
	// trailing READ round trip waits until the shard has processed the
	// whole burst.
	conn, err := net.Dial("tcp", cluster.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var burst []byte
	for i := 0; i < DedupClients+64; i++ {
		burst = wire.AppendFrame(burst, &wire.Frame{Op: wire.OpHello, Client: wire.NextClientID()})
	}
	burst = wire.AppendFrame(burst, &wire.Frame{Op: wire.OpRead, ID: 0})
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	var resp [8]byte
	if _, err := io.ReadFull(conn, resp[:]); err != nil {
		t.Fatal(err)
	}

	// Now the PR's headline scenario again: mid-window kill + retry.
	// If the churn had evicted the Counter's window, the replayed
	// frames would re-execute and the count would overshoot.
	sess := idleSession(t, ctr)
	sess.conns[0] = newKillOnOp(sess.conns[0], wire.OpCellN2, 1)
	if _, err := ctr.IncBatch(0, 10, nil); err != nil {
		t.Fatalf("mid-window connection death surfaced: %v", err)
	}
	if got, err := ctr.Read(); err != nil || got != 11 {
		t.Fatalf("Read() = (%d, %v), want (11, nil) — churn evicted the dedup window", got, err)
	}
}

// The chaos grid: sessions are killed at random frame boundaries while
// a concurrent workload runs, across every (S stripes × pool width × k)
// cell, and the counts must come out EXACT — Σ shard reads equals the
// sequential total, and the claimed values have zero gaps and zero
// duplicates within every stripe's residue class. This is the
// end-to-end exactly-once guarantee under repeated connection loss.
func TestChaosSessionKillExactCountGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var rmu sync.Mutex
	chaos := func(conn net.Conn) net.Conn {
		rmu.Lock()
		allow := 25 + rng.Intn(35)
		rmu.Unlock()
		return newFailAfter(conn, int32(allow))
	}
	for _, S := range []int{1, 2} {
		for _, width := range []int{1, 2} {
			for _, k := range []int{1, 5} {
				t.Run(fmt.Sprintf("S=%d/width=%d/k=%d", S, width, k), func(t *testing.T) {
					topo, err := core.New(4, 8)
					if err != nil {
						t.Fatal(err)
					}
					sc, stop, err := startStripes(topo, S, 2)
					if err != nil {
						t.Fatal(err)
					}
					defer stop()
					for i := 0; i < S; i++ {
						sc[i].SetDialWrapper(chaos)
					}
					ctr := newFleet(t, sc, width)
					defer ctr.Close()
					ctr.SetRetryPolicy(12, 30*time.Second)

					const procs, per = 4, 8
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
					// Quiesce the chaos for the read side, then verify the
					// exact count and the zero-gap/zero-dup property.
					for i := 0; i < S; i++ {
						sc[i].SetDialWrapper(nil)
					}
					total := int64(procs * per * k)
					got, err := ctr.Read()
					if err != nil {
						t.Fatal(err)
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
				})
			}
		}
	}
}
