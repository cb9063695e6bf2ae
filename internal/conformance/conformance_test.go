package conformance

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distnet"
	"repro/internal/inproc"
	"repro/internal/network"
	"repro/internal/tcpnet"
	"repro/internal/udpnet"
	"repro/internal/wire"
	"repro/internal/xport"
)

// instance is one booted deployment of a transport, with the suite's
// two fault hooks bound to whatever injection mechanism that transport
// has: chaos(true) turns on sustained random faults (and chaos(false)
// quiesces them for the exact-read phase), arm() injects one
// deterministic burst of failures guaranteed to force a mid-window
// retry/replay on the next flight.
type instance struct {
	counter func(width int) *xport.Counter
	chaos   func(on bool)
	arm     func()
}

type fixture struct {
	name string
	mk   func(t *testing.T, topo *network.Network, shards int) *instance
}

// faultable is the transports with a fault hook. The retry/replay and
// frame-bill cells run over these three only: the dist link cannot fail
// (a message is a channel send, so there is nothing to arm), and it
// bills one message per balancer touched with no CELL frame, so its
// integers are its own — distnet's TestBatchMessagesPerToken and
// TestSessionBillsItsOwnMessages pin those.
var faultable = []fixture{
	{name: "tcp", mk: mkTCP},
	{name: "udp", mk: mkUDP},
	{name: "inproc", mk: mkInproc},
}

// transports is every Link on the seam: the cells that need no fault
// hook run over all four.
var transports = append(faultable[:len(faultable):len(faultable)], fixture{name: "dist", mk: mkDist})

// failAfter is a net.Conn that dies — closes and errors — when its
// write allowance runs out, killing a TCP session at an exact frame
// boundary mid-window.
type failAfter struct {
	net.Conn
	allow atomic.Int32
}

func newFailAfter(conn net.Conn, allow int32) *failAfter {
	f := &failAfter{Conn: conn}
	f.allow.Store(allow)
	return f
}

func (f *failAfter) Write(b []byte) (int, error) {
	if f.allow.Add(-1) < 0 {
		f.Conn.Close()
		return 0, errors.New("conformance: injected connection death")
	}
	return f.Conn.Write(b)
}

func mkTCP(t *testing.T, topo *network.Network, shards int) *instance {
	t.Helper()
	c, stop, err := tcpnet.StartCluster(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	rng := rand.New(rand.NewSource(42))
	var mu sync.Mutex
	return &instance{
		counter: c.NewCounterPool,
		chaos: func(on bool) {
			if !on {
				c.SetDialWrapper(nil)
				return
			}
			c.SetDialWrapper(func(conn net.Conn) net.Conn {
				mu.Lock()
				allow := 25 + rng.Intn(35)
				mu.Unlock()
				return newFailAfter(conn, int32(allow))
			})
		},
		// Kill the next dialed connection after 3 frames (HELLO plus a
		// couple of STEPNs) — mid-window, after part of it applied —
		// then dial clean so the retry replays against live shards.
		arm: func() {
			var used atomic.Bool
			c.SetDialWrapper(func(conn net.Conn) net.Conn {
				if used.CompareAndSwap(false, true) {
					return newFailAfter(conn, 3)
				}
				return conn
			})
		},
	}
}

func mkUDP(t *testing.T, topo *network.Network, shards int) *instance {
	t.Helper()
	c, stop, err := udpnet.StartCluster(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	// Until chaos is switched on the loopback link is lossless and the
	// cells bill exact frame counts, so sessions get the 1 s timer
	// bench/'s udp-k64 uses: the default 15 ms timer reads a guest stall
	// as loss, and a retransmitted copy's frames count in RPCs(). The
	// chaos cells, which need prompt retransmits, restore the default.
	policy := wire.RetryPolicy{Attempts: udpnet.DefaultRetransmitAttempts, Budget: udpnet.DefaultRetransmitBudget}
	c.SetRetransmitPolicy(policy, wire.Backoff{Base: time.Second, Max: time.Second})
	return &instance{
		counter: c.NewCounterPool,
		chaos: func(on bool) {
			if !on {
				c.SetDialWrapper(nil)
				return
			}
			c.SetRetransmitPolicy(policy, udpnet.DefaultRetransmitTimer)
			c.SetDialWrapper(udpnet.Faults{Drop: 0.15, Dup: 0.15, Reorder: 0.15, Seed: 7}.Wrapper())
		},
		// Every request datagram sent twice: the shard's dedup must
		// absorb the duplicate of every mutating frame.
		arm: func() {
			c.SetDialWrapper(udpnet.Faults{Dup: 1, Seed: 7}.Wrapper())
		},
	}
}

func mkInproc(t *testing.T, topo *network.Network, shards int) *instance {
	t.Helper()
	c, stop, err := inproc.StartCluster(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return &instance{
		counter: c.NewCounterPool,
		chaos: func(on bool) {
			if !on {
				c.SetFaults(inproc.Faults{})
				return
			}
			// Per-FRAME loss compounds over a whole window's frames per
			// flight attempt, so these stay low enough that 16 attempts
			// make flight exhaustion vanishingly unlikely.
			c.SetFaults(inproc.Faults{CallLoss: 0.01, ReplyLoss: 0.01, Seed: 7})
		},
		// Lose the replies of the next three mutating frames AFTER the
		// shard applied them — the pure replay case: the client must
		// retry and the dedup must answer from the recorded replies.
		arm: func() { c.LoseReplies(3) },
	}
}

// mkDist deploys the message-passing emulation: one server goroutine per
// balancer whatever `shards` says, and no faults to inject — its chaos
// cells run with chaos off.
func mkDist(t *testing.T, topo *network.Network, _ int) *instance {
	t.Helper()
	c := distnet.NewCluster(topo, distnet.Config{})
	t.Cleanup(c.Stop)
	return &instance{counter: c.NewCounterPool, chaos: func(bool) {}}
}

// checkDense asserts the claimed values are exactly {0..total-1} as
// seen through S stripes: within every residue class v ≡ s (mod S) the
// sorted values are s, s+S, s+2S, ... with zero gaps and zero
// duplicates — the end-to-end exactly-once property.
func checkDense(t *testing.T, vals []int64, S int, total int64) {
	t.Helper()
	if int64(len(vals)) != total {
		t.Fatalf("claimed %d values, want %d", len(vals), total)
	}
	classes := make(map[int64][]int64, S)
	for _, v := range vals {
		classes[v%int64(S)] = append(classes[v%int64(S)], v)
	}
	for s, vs := range classes {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for i, v := range vs {
			if v != int64(i)*int64(S)+s {
				t.Fatalf("stripe %d values gapped or duplicated at rank %d: %v", s, i, vs)
			}
		}
	}
}

// The chaos grid, identical for every transport: sessions die, packets
// vanish, duplicate and reorder, calls and replies get lost — per the
// transport's own failure model — while a striped fleet serves a
// concurrent workload across every (stripes × pool width × batch size)
// cell, and the counts must come out EXACT: Read() equals the
// sequential total and the claimed values are dense within every
// stripe's residue class.
func TestConformanceChaosExactCountGrid(t *testing.T) {
	for _, fx := range transports {
		for _, S := range []int{1, 2} {
			for _, width := range []int{1, 2} {
				for _, k := range []int{1, 5} {
					t.Run(fmt.Sprintf("%s/S=%d/width=%d/k=%d", fx.name, S, width, k), func(t *testing.T) {
						topo, err := core.New(4, 8)
						if err != nil {
							t.Fatal(err)
						}
						insts := make([]*instance, S)
						stripes := make([]*xport.Counter, S)
						for i := 0; i < S; i++ {
							insts[i] = fx.mk(t, topo, 2)
							insts[i].chaos(true)
							stripes[i] = insts[i].counter(width)
						}
						ctr := xport.NewShardedCounter("conformance:"+fx.name, stripes)
						defer ctr.Close()
						ctr.SetRetryPolicy(16, 30*time.Second)

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
						// Quiesce the faults for the read phase, then
						// verify exactness.
						for _, inst := range insts {
							inst.chaos(false)
						}
						total := int64(procs * per * k)
						got, err := ctr.Read()
						if err != nil {
							t.Fatal(err)
						}
						if got != total {
							t.Fatalf("Read() = %d, want %d — values leaked under chaos", got, total)
						}
						var all []int64
						for _, vs := range vals {
							all = append(all, vs...)
						}
						checkDense(t, all, S, total)
					})
				}
			}
		}
	}
}

// Deterministic retry/replay: each transport's arm() hook forces the
// next flight to fail AFTER part of its window was applied (TCP: the
// connection dies after 3 frames; UDP: every datagram is sent twice;
// inproc: three replies are lost post-apply). The retried window must
// replay the sequence tape and land exactly once: dense values, exact
// Read.
func TestConformanceRetryReplayExactlyOnce(t *testing.T) {
	for _, fx := range faultable {
		t.Run(fx.name, func(t *testing.T) {
			topo, err := core.New(4, 8)
			if err != nil {
				t.Fatal(err)
			}
			inst := fx.mk(t, topo, 1)
			ctr := inst.counter(1)
			defer ctr.Close()
			ctr.SetRetryPolicy(8, 10*time.Second)

			inst.arm()
			const k = 10
			vals, err := ctr.IncBatch(0, k, nil)
			if err != nil {
				t.Fatalf("armed fault surfaced instead of retrying: %v", err)
			}
			checkDense(t, vals, 1, k)
			got, err := ctr.Read()
			if err != nil {
				t.Fatal(err)
			}
			if got != k {
				t.Fatalf("Read() = %d, want %d — the replay leaked values", got, k)
			}
		})
	}
}

// Close during concurrent flights: every caller that loses the race
// observes xport.ErrClosed — the one sentinel shared by all transports
// — and nothing else; afterwards the counter stays closed for Inc and
// Read alike.
func TestConformanceCloseDuringFlight(t *testing.T) {
	for _, fx := range transports {
		t.Run(fx.name, func(t *testing.T) {
			topo, err := core.New(4, 8)
			if err != nil {
				t.Fatal(err)
			}
			inst := fx.mk(t, topo, 1)
			ctr := inst.counter(2)

			const procs = 4
			errs := make([]error, procs)
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for {
						if _, err := ctr.Inc(g); err != nil {
							errs[g] = err
							return
						}
					}
				}(g)
			}
			time.Sleep(20 * time.Millisecond)
			ctr.Close()
			wg.Wait()
			for g, err := range errs {
				if !errors.Is(err, xport.ErrClosed) {
					t.Fatalf("goroutine %d: error %v, want xport.ErrClosed", g, err)
				}
			}
			if _, err := ctr.Inc(0); !errors.Is(err, xport.ErrClosed) {
				t.Fatalf("Inc after Close: %v, want xport.ErrClosed", err)
			}
			if _, err := ctr.Read(); !errors.Is(err, xport.ErrClosed) {
				t.Fatalf("Read after Close: %v, want xport.ErrClosed", err)
			}
			// The transport aliases are the SAME sentinel, not copies.
			for name, sentinel := range map[string]error{
				"tcpnet": tcpnet.ErrClosed, "udpnet": udpnet.ErrClosed, "inproc": inproc.ErrClosed,
			} {
				if !errors.Is(errs[0], sentinel) {
					t.Fatalf("%s.ErrClosed is not the shared xport sentinel", name)
				}
			}
		})
	}
}

// The control-plane drain contract: a live counter reports
// Live+Quiescent, flips non-quiescent while flights are in the air,
// returns to quiescence when the load stops, and Close flips it to
// not-live with state "closed" — on every transport, because the state
// machine lives in xport, not the link.
func TestConformanceDrainHealthFlips(t *testing.T) {
	for _, fx := range transports {
		t.Run(fx.name, func(t *testing.T) {
			topo, err := core.New(4, 8)
			if err != nil {
				t.Fatal(err)
			}
			inst := fx.mk(t, topo, 1)
			ctr := inst.counter(1)

			if h := ctr.Health(); !h.Live || !h.Quiescent || h.Detail != "live" {
				t.Fatalf("fresh counter health = %+v, want live+quiescent", h)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if _, err := ctr.IncBatch(0, 8, nil); err != nil {
							t.Errorf("load: %v", err)
							return
						}
					}
				}
			}()
			// Under sustained load the counter must be observably
			// non-quiescent: a flight holds a pool session.
			busy := false
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
				if h := ctr.Health(); !h.Quiescent {
					busy = true
					break
				}
			}
			close(stop)
			wg.Wait()
			if !busy {
				t.Fatal("counter never left quiescence under sustained load")
			}
			if h := ctr.Health(); !h.Quiescent {
				t.Fatalf("health after load stopped = %+v, want quiescent", h)
			}

			ctr.Close()
			h := ctr.Health()
			if h.Live || !h.Quiescent || h.Detail != "closed" {
				t.Fatalf("health after Close = %+v, want not-live, quiescent, closed", h)
			}
			st, ok := ctr.Status().(xport.CounterStatus)
			if !ok || st.State != "closed" {
				t.Fatalf("status after Close = %+v, want state closed", ctr.Status())
			}
		})
	}
}

// The wire bill is a property of the WALK, not the link: for the same
// topology and the same workload, every transport sends the same
// number of request frames, integer-exactly — TCP streams them one
// round trip each, UDP packs whole layers into datagrams, inproc calls
// straight through, and all three bill identically at zero loss. At
// k=64 the batched walk amortises to at most 1.05 rpcs/token
// (integer-checked as 100·rpcs ≤ 105·tokens).
func TestTransportFrameBillEquality(t *testing.T) {
	for _, k := range []int{1, 64} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			bills := make(map[string]int64, len(faultable))
			var tokens int64
			for _, fx := range faultable {
				topo, err := core.New(4, 8)
				if err != nil {
					t.Fatal(err)
				}
				inst := fx.mk(t, topo, 1)
				ctr := inst.counter(1)
				if k == 1 {
					tokens = 32
					for i := 0; i < int(tokens); i++ {
						if _, err := ctr.Inc(0); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					tokens = int64(k)
					if _, err := ctr.IncBatch(0, k, nil); err != nil {
						t.Fatal(err)
					}
				}
				bills[fx.name] = ctr.RPCs()
				ctr.Close()
			}
			ref := bills[faultable[0].name]
			for name, rpcs := range bills {
				if rpcs != ref {
					t.Fatalf("frame bills diverge: %v (want all == %d, got %s = %d)", bills, ref, name, rpcs)
				}
			}
			if k == 64 && 100*ref > 105*tokens {
				t.Fatalf("batched bill %d rpcs for %d tokens exceeds the 1.05 rpcs/token budget", ref, tokens)
			}
		})
	}
}

// The retry/backoff/pool defaults have exactly one source of truth —
// xport — and the per-transport names are aliases of it. A transport
// "tuning" its own copy is a drift this test turns into a failure. The
// retry BUDGET is the one deliberately per-transport knob (UDP absorbs
// loss below the flight layer, so its budget is wider).
func TestRetryDefaultsSingleSource(t *testing.T) {
	if tcpnet.DefaultRetryAttempts != xport.DefaultRetryAttempts ||
		udpnet.DefaultRetryAttempts != xport.DefaultRetryAttempts ||
		inproc.DefaultRetryAttempts != xport.DefaultRetryAttempts {
		t.Fatal("DefaultRetryAttempts drifted from xport")
	}
	if tcpnet.DefaultRetryBackoff != xport.DefaultRetryBackoff ||
		udpnet.DefaultRetryBackoff != xport.DefaultRetryBackoff ||
		inproc.DefaultRetryBackoff != xport.DefaultRetryBackoff {
		t.Fatal("DefaultRetryBackoff drifted from xport")
	}
	if tcpnet.DefaultRetryBudget != 2*time.Second ||
		udpnet.DefaultRetryBudget != 8*time.Second ||
		inproc.DefaultRetryBudget != 2*time.Second {
		t.Fatal("per-transport retry budgets changed; update OPERATIONS.md and this test together")
	}

	// Pool width defaults to the topology's input width on every
	// transport — the xport constructor's rule, observed through the
	// status document.
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range transports {
		inst := fx.mk(t, topo, 1)
		ctr := inst.counter(0)
		st := ctr.Status().(xport.CounterStatus)
		if st.PoolWidth != topo.InWidth() {
			t.Fatalf("%s: default pool width %d, want input width %d", fx.name, st.PoolWidth, topo.InWidth())
		}
		if st.Transport != fx.name {
			t.Fatalf("status transport %q, want %q", st.Transport, fx.name)
		}
		ctr.Close()
	}
}
