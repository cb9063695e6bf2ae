package tcpnet

import (
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// failAfter is a net.Conn that starts failing writes after `allow`
// successful ones — a deterministic mid-window connection death.
type failAfter struct {
	net.Conn
	allow atomic.Int32
}

func newFailAfter(conn net.Conn, allow int32) *failAfter {
	f := &failAfter{Conn: conn}
	f.allow.Store(allow)
	return f
}

var errInjected = errors.New("injected connection failure")

func (f *failAfter) Write(b []byte) (int, error) {
	if f.allow.Add(-1) < 0 {
		f.Conn.Close()
		return 0, errInjected
	}
	return f.Conn.Write(b)
}

// idleSession digs the next-checkout idle session out of the counter's
// pool (via the xport test hook) as its concrete TCP type.
func idleSession(t *testing.T, ctr *Counter) *Session {
	t.Helper()
	idle := ctr.PoolIdle()
	if len(idle) == 0 {
		t.Fatal("no idle session in the pool")
	}
	return idle[0].(*Session)
}

// The satellite regression: a session that dies MID-WINDOW (two frames
// applied, then the connection fails) must not surface the error to the
// caller — the failed session is evicted pool-wide and the window retries
// once on a fresh session. Values stay unique and the RPC bill monotone.
func TestCounterRetriesFailedWindow(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 1)
	defer stop()
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()

	// Prime the pool with one dialed session, then poison its connection
	// so the third frame of the next window dies mid-flight.
	first, err := ctr.Inc(0)
	if err != nil {
		t.Fatal(err)
	}
	before := ctr.RPCs()
	sess := idleSession(t, ctr)
	sess.conns[0] = newFailAfter(sess.conns[0], 2)

	vals, err := ctr.IncBatch(0, 10, nil)
	if err != nil {
		t.Fatalf("mid-window connection death surfaced to the caller: %v", err)
	}
	if len(vals) != 10 {
		t.Fatalf("retried window returned %d values, want 10", len(vals))
	}
	seen := map[int64]bool{first: true}
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("retried window duplicated value %d", v)
		}
		seen[v] = true
	}
	if after := ctr.RPCs(); after < before {
		t.Fatalf("RPCs() fell from %d to %d across an eviction", before, after)
	}
	// The poisoned session is gone pool-wide: the next flight runs on a
	// fresh one and keeps working.
	if _, err := ctr.Inc(1); err != nil {
		t.Fatalf("Inc after eviction: %v", err)
	}
}

// Killing a live session's connections while concurrent callers pool into
// windows must never surface a connection error to any Inc caller, and
// the RPC bill must stay monotone throughout (sampled concurrently).
func TestCounterSessionKillMidWindow(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 2)
	defer stop()
	ctr := cluster.NewCounterPool(2)
	defer ctr.Close()
	if _, err := ctr.Inc(0); err != nil {
		t.Fatal(err)
	}
	victim := idleSession(t, ctr)

	var stopSampling atomic.Bool
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		last := int64(0)
		for !stopSampling.Load() {
			now := ctr.RPCs()
			if now < last {
				t.Errorf("RPCs() fell from %d to %d", last, now)
				return
			}
			last = now
			// RPCs() takes the pool lock; sample gently so the workers
			// are not starved of checkouts on a single-CPU host.
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const procs, per = 8, 40
	var wg sync.WaitGroup
	var killed sync.WaitGroup
	killed.Add(1)
	go func() { // the kill: drop the victim's connections mid-run
		defer killed.Done()
		for _, conn := range victim.conns {
			conn.Close()
		}
	}()
	errs := make([]error, procs)
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := ctr.Inc(pid); err != nil {
					errs[pid] = err
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	killed.Wait()
	stopSampling.Store(true)
	sampler.Wait()
	for pid, err := range errs {
		if err != nil {
			t.Fatalf("pid %d saw error despite retry: %v", pid, err)
		}
	}
}

// A long-dead pooled connection is evicted by the checkout health probe
// BEFORE a flight discovers it: with retries disabled (attempts=1) an
// Inc after the whole fleet restarted still succeeds, because the
// flight never runs on the dead session.
func TestPoolHealthCheckEvictsDeadSession(t *testing.T) {
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
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()
	ctr.SetRetryPolicy(1, 0) // any mid-flight failure would surface
	if _, err := ctr.Inc(0); err != nil {
		t.Fatal(err)
	}

	// Kill and restart the shard on the same address: the pooled idle
	// session's connection is now long-dead (FIN'd), and only the
	// checkout probe stands between it and the next flight.
	s.Close()
	s2, err := StartShard(addr, topo, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Wait for the FIN to reach the idle session's socket so the probe
	// deterministically sees EOF rather than an empty, live buffer.
	victim := idleSession(t, ctr)
	deadline := time.Now().Add(5 * time.Second)
	for victim.Healthy() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if victim.Healthy() {
		t.Fatal("idle session still probes healthy after shard restart")
	}

	if _, err := ctr.Inc(0); err != nil {
		t.Fatalf("Inc after restart surfaced a dead-session error despite the health check: %v", err)
	}
	alive := ctr.PoolLive()
	if alive != 1 {
		t.Fatalf("pool holds %d live sessions, want 1 (dead one retired at checkout)", alive)
	}
}

// gateConn fails its connection's first write only after the release
// channel closes, signalling on failing first — it lets the test order
// "flight is mid-failure" before "Close is called" deterministically.
type gateConn struct {
	net.Conn
	failing chan struct{}
	release chan struct{}
	tripped atomic.Bool
}

func (g *gateConn) Write(b []byte) (int, error) {
	if g.tripped.CompareAndSwap(false, true) {
		close(g.failing)
		<-g.release
	}
	if g.tripped.Load() {
		g.Conn.Close()
		return 0, errInjected
	}
	return g.Conn.Write(b)
}

// The Close-racing-a-retry regression: a window whose first attempt
// fails while Close is running must hand its callers ErrClosed — never
// a raw dial or connection error from the replacement session (here the
// whole fleet is gone, so a retry that ignored Close would surface a
// dial failure).
func TestCounterCloseDuringRetry(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 1)
	ctr := cluster.NewCounterPool(1)
	if _, err := ctr.Inc(0); err != nil {
		t.Fatal(err)
	}
	gate := &gateConn{failing: make(chan struct{}), release: make(chan struct{})}
	sess := idleSession(t, ctr)
	gate.Conn = sess.conns[0]
	sess.conns[0] = gate

	res := make(chan error, 1)
	go func() {
		_, err := ctr.IncBatch(0, 5, nil)
		res <- err
	}()
	<-gate.failing
	// The flight is wedged mid-write. Tear the world down: kill the
	// shards (a retry would get a dial error) and start Close, which
	// marks the counter closed and then waits for the flight.
	stop()
	closed := make(chan struct{})
	go func() {
		ctr.Close()
		close(closed)
	}()
	// Give Close time to set the flag, then let the write fail.
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	err = <-res
	<-closed
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("window racing Close returned %v, want ErrClosed", err)
	}
}

// Close during concurrent flights: pooled callers may observe ErrClosed
// (the sentinel) but never a raw connection error from their own
// counter's teardown; Close waits for in-flight windows, and later calls
// fail fast with ErrClosed.
func TestCounterCloseDuringFlights(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 2)
	defer stop()
	ctr := cluster.NewCounter()

	const procs = 12
	var started sync.WaitGroup
	var wg sync.WaitGroup
	bad := make([]error, procs)
	started.Add(procs)
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			started.Done()
			for i := 0; ; i++ {
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

// The pool retains at most `width` idle sessions, reuses them
// round-robin, and still hands out dense values under concurrency.
func TestCounterPoolWidth(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 2)
	defer stop()
	ctr := cluster.NewCounterPool(2)
	defer ctr.Close()

	const procs, per = 8, 50
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
			t.Fatalf("pooled values not dense at %d: %d", i, v)
		}
	}
	idle := len(ctr.PoolIdle())
	if idle > 2 {
		t.Fatalf("pool retained %d idle sessions, width is 2", idle)
	}
	// Exact-count read side agrees with the workload.
	got, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != procs*per {
		t.Fatalf("Read() = %d, want %d", got, procs*per)
	}
}

// READ frames are non-mutating and power the session-level exact count.
func TestSessionRead(t *testing.T) {
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

	if n, err := sess.Read(); err != nil || n != 0 {
		t.Fatalf("Read on fresh cluster = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := sess.IncBatch(0, 25, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // twice: reading must not mutate
		if n, err := sess.Read(); err != nil || n != 25 {
			t.Fatalf("Read #%d = (%d, %v), want (25, nil)", i, n, err)
		}
	}
	if _, err := sess.DecBatch(0, 10, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := sess.Read(); err != nil || n != 15 {
		t.Fatalf("Read after Dec = (%d, %v), want (15, nil)", n, err)
	}
}

// DedupConfig threads from StartShardConfig down to the shard's
// exactly-once table, and even a drastically shrunk window keeps a
// prompt mid-window retry exact — the bound is the horizon, not the
// correctness, as long as fewer than Window newer frames intervene.
func TestDedupConfigThreaded(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ShardConfig{Dedup: wire.DedupConfig{Window: 8, Clients: 2}}
	s, err := StartShardConfig("127.0.0.1:0", topo, 0, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.core.Dedup().Config(); got.Window != cfg.Dedup.Window || got.Clients != cfg.Dedup.Clients {
		t.Fatalf("shard dedup config = %+v, want %+v", got, cfg.Dedup)
	}
	cluster := NewCluster(topo, []string{s.Addr()})
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()
	if _, err := ctr.Inc(0); err != nil {
		t.Fatal(err)
	}
	sess := idleSession(t, ctr)
	sess.conns[0] = newFailAfter(sess.conns[0], 2)
	if _, err := ctr.IncBatch(0, 5, nil); err != nil {
		t.Fatalf("mid-window death surfaced under a custom dedup config: %v", err)
	}
	if got, err := ctr.Read(); err != nil || got != 6 {
		t.Fatalf("Read() = (%d, %v), want (6, nil)", got, err)
	}
}
