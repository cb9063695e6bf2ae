// Command countbench regenerates the paper's quantitative results — the
// tables recorded in EXPERIMENTS.md. Each experiment is selected with
// -exp; -exp all runs everything:
//
//	countbench -exp depth        # E1/E2: depth formulas
//	countbench -exp contention   # E10: cont(C(w,t),n) sweeps over n and t
//	countbench -exp compare      # E11/E12: families head to head
//	countbench -exp blocks       # E10: per-block stall attribution vs t
//	countbench -exp slope        # E10: contention-vs-n slopes vs theory
//	countbench -exp throughput   # E13: wall-clock counter throughput
//	countbench -exp fastpath     # E23: batched/sharded fast-path throughput
//	countbench -exp elim         # E24: Inc/Dec elimination rate and speedup
//	countbench -exp dist         # E13: distributed emulation throughput
//	countbench -exp distbatch    # E25: distributed msgs/token, batched protocol
//	countbench -exp distshard    # E26: sharded deployments, cost vs stripe count S
//	countbench -exp dedup        # E27: exactly-once dedup overhead + kill/retry
//	countbench -exp udp          # E28: UDP datagram transport vs injected loss
//	countbench -exp ctlplane     # E29: control-plane scrape overhead (HTTP /metrics mid-run)
//	countbench -exp udpspeed     # E30: raw-speed datagram path (workers × pipeline × batched syscalls)
//	countbench -exp transports   # E31: one protocol core over tcp/udp/inproc — identical frame bills
//	countbench -exp latency      # E32: flight-latency distributions (p50/p95/p99/max per transport×k cell)
//	countbench -exp timesim      # E13: queueing simulation (host-independent)
//	countbench -exp linearize    # E18: linearizability observation
//	countbench -exp ablation     # E16/E17: bitonic merger, random init
//
// The table-producing logic lives in internal/experiments (tested); this
// command is a thin front-end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitonic"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/ctlplane"
	"repro/internal/distnet"
	"repro/internal/dtree"
	"repro/internal/experiments"
	"repro/internal/inproc"
	"repro/internal/network"
	"repro/internal/periodic"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tcpnet"
	"repro/internal/timesim"
	"repro/internal/udpnet"
	"repro/internal/wire"
	"repro/internal/xport"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "depth | contention | compare | blocks | slope | throughput | fastpath | elim | dist | distbatch | distshard | dedup | udp | ctlplane | udpspeed | transports | latency | timesim | linearize | ablation | all")
		rounds   = flag.Int("rounds", 60, "tokens per process in simulations")
		opsK     = flag.Int("ops", 50, "thousands of operations per throughput cell")
		shards   = flag.Int("shards", 4, "max stripe count S for sharded-deployment experiments")
		workers  = flag.Int("workers", 4, "shard worker-pool size for the E30 tuned rows")
		pipeline = flag.Int("pipeline", 4, "session pipeline depth for the E30 tuned rows")
		out      = flag.String("out", "", "JSON output path (stable schema; -exp ctlplane, udpspeed and transports)")
	)
	flag.Parse()

	// Wall-clock numbers are only comparable across runs with the same
	// processor budget: a 1-CPU container (the E23/E24 tables) cannot show
	// cache-line contention, which is what sharding and elimination are
	// for. Stamp every run so recorded tables are attributable — shard
	// count, worker-pool size and pipeline depth included.
	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d shards=%d workers=%d pipeline=%d\n\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *shards, *workers, *pipeline)

	run := map[string]func(){
		"depth":      expDepth,
		"contention": func() { expContention(*rounds) },
		"compare":    func() { expCompare(*rounds) },
		"blocks":     func() { expBlocks(*rounds) },
		"slope":      func() { expSlope(*rounds) },
		"throughput": func() { expThroughput(*opsK * 1000) },
		"fastpath":   func() { expFastpath(*opsK * 1000) },
		"elim":       func() { expElim(*opsK * 1000) },
		"dist":       func() { expDist(*opsK * 200) },
		"distbatch":  expDistbatch,
		"distshard":  func() { expDistshard(*shards) },
		"dedup":      expDedup,
		"udp":        expUDP,
		"ctlplane":   func() { expCtlplane(*out) },
		"udpspeed":   func() { expUDPSpeed(*workers, *pipeline, *out) },
		"transports": func() { expTransports(*out) },
		"latency":    func() { expLatency(*out) },
		"timesim":    expTimesim,
		"linearize":  expLinearize,
		"ablation":   expAblation,
	}
	order := []string{"depth", "contention", "compare", "blocks", "slope",
		"throughput", "fastpath", "elim", "dist", "distbatch", "distshard",
		"dedup", "udp", "ctlplane", "udpspeed", "transports", "latency", "timesim", "linearize", "ablation"}
	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			run[name]()
			fmt.Println()
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	f()
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func log2(x int) int {
	k := 0
	for x > 1 {
		x >>= 1
		k++
	}
	return k
}

// E1/E2: depth of C(w,t) vs the Theorem 4.1 formula, vs baselines.
func expDepth() {
	rows := experiments.DepthTable([]int{4, 8, 16, 32, 64}, []int{1, 2, 4})
	fmt.Print(experiments.FormatDepthTable(rows))
}

// E10: amortized contention of C(w,t) as n and t sweep.
func expContention(rounds int) {
	const w = 16
	fmt.Printf("amortized contention (stalls/token), w=%d\n\n", w)
	for _, advName := range []string{"strongest", "greedy", "random"} {
		tb := stats.NewTable("n", "C(16,16)", "C(16,64)", "C(16,256)", "bitonic(16)")
		for _, n := range []int{16, 64, 256, 1024} {
			row := []any{n}
			for _, build := range []func() *network.Network{
				func() *network.Network { return must(core.New(w, 16)) },
				func() *network.Network { return must(core.New(w, 64)) },
				func() *network.Network { return must(core.New(w, 256)) },
				func() *network.Network { return must(bitonic.New(w)) },
			} {
				row = append(row, experiments.Amortized(build(), n, rounds, advName))
			}
			tb.AddRowf(row...)
		}
		fmt.Printf("[%s adversary]\n%s\n", advName, tb.String())
	}
}

// E11/E12: all families head to head under the strongest adversary.
func expCompare(rounds int) {
	rows := experiments.CompareTable(16, 64, rounds, []int{8, 32, 128, 512})
	fmt.Println("strongest-adversary amortized contention (stalls/token, max over all strategies)")
	fmt.Print(experiments.FormatCompareTable(16, 64, rows))
}

// E10 structural interpretation: stall share per block as t grows.
func expBlocks(rounds int) {
	rows := experiments.BlockShares(16, 256, rounds, []int{16, 32, 64, 128, 256})
	fmt.Print(experiments.FormatBlockShares(16, 256, rows))
}

// E10: fitted slope of contention vs n.
func expSlope(rounds int) {
	rep := experiments.Slopes(16, rounds, []int{64, 128, 256, 512, 1024})
	fmt.Printf("contention-vs-n slope, w=%d (lockstep adversary):\n", rep.W)
	fmt.Printf("  bitonic(%d):  %.4f   (theory Θ(lg²w/w) = %.3f)\n",
		rep.W, rep.BitonicSlope, float64(log2(rep.W)*log2(rep.W))/float64(rep.W))
	fmt.Printf("  C(%d,%d):    %.4f   (theory O(lgw/w)  = %.3f)\n",
		rep.W, rep.W*log2(rep.W), rep.CWTSlope, float64(log2(rep.W))/float64(rep.W))
	fmt.Printf("  slope ratio bitonic/C = %.2f  (theory ~lgw = %d)\n", rep.Ratio, log2(rep.W))
}

// E13: wall-clock goroutine throughput of counter implementations.
func expThroughput(ops int) {
	const w = 16
	fmt.Printf("counter throughput, ops/ms (GOMAXPROCS=%d, %d ops per cell)\n\n", runtime.GOMAXPROCS(0), ops)
	counters := []func() counter.Counter{
		func() counter.Counter { return counter.NewCentral() },
		func() counter.Counter { return counter.NewLocked() },
		func() counter.Counter { return counter.NewNetwork(must(bitonic.New(w))) },
		func() counter.Counter { return counter.NewNetwork(must(periodic.New(w))) },
		func() counter.Counter { return counter.NewNetwork(must(core.New(w, w))) },
		func() counter.Counter { return counter.NewNetwork(must(core.New(w, w*log2(w)))) },
		func() counter.Counter { return dtreeCounter(w) },
	}
	header := []string{"goroutines"}
	for _, mk := range counters {
		header = append(header, mk().Name())
	}
	tb := stats.NewTable(header...)
	for _, g := range []int{1, 2, 4, 8, 16, 32} {
		row := []any{g}
		for _, mk := range counters {
			row = append(row, fmt.Sprintf("%.0f", throughput(mk(), g, ops)))
		}
		tb.AddRowf(row...)
	}
	fmt.Print(tb.String())
}

// E23: the fast path — batched and sharded counters against the E13
// baselines. The batched counter amortizes a traversal over k values
// (one fetch-add per balancer touched, Network.TraverseBatch); the
// sharded counter stripes pids over independent networks.
func expFastpath(ops int) {
	const w = 16
	t := w * log2(w)
	fmt.Printf("fast-path counter throughput, ops/ms (GOMAXPROCS=%d, %d ops per cell)\n\n",
		runtime.GOMAXPROCS(0), ops)
	counters := []func() counter.Counter{
		func() counter.Counter { return counter.NewCentral() },
		func() counter.Counter { return counter.NewNetwork(must(core.New(w, t))) },
		func() counter.Counter { return mustSharded(4, w, w) },
		func() counter.Counter { return mustSharded(8, w, t) },
		func() counter.Counter { return counter.NewBatched(counter.NewNetwork(must(core.New(w, t))), 16) },
		func() counter.Counter { return counter.NewBatched(counter.NewNetwork(must(core.New(w, t))), 64) },
	}
	header := []string{"goroutines"}
	for _, mk := range counters {
		header = append(header, mk().Name())
	}
	tb := stats.NewTable(header...)
	for _, g := range []int{1, 2, 4, 8, 16, 32, 64} {
		row := []any{g}
		for _, mk := range counters {
			row = append(row, fmt.Sprintf("%.0f", throughput(mk(), g, ops)))
		}
		tb.AddRowf(row...)
	}
	fmt.Print(tb.String())
}

func mustSharded(shards, w, t int) counter.Counter {
	c, err := counter.NewSharded(shards, func() (*network.Network, error) { return core.New(w, t) })
	if err != nil {
		panic(err)
	}
	return c
}

// E24: elimination under a balanced Inc/Dec workload — pairs cancel at
// the door instead of traversing the network twice.
func expElim(ops int) {
	const w = 16
	fmt.Printf("balanced Inc/Dec workload, ops/ms (%d ops per cell)\n\n", ops)
	tb := stats.NewTable("goroutines", "C(16,16) raw", "C(16,16)+elim", "eliminated %")
	for _, g := range []int{2, 4, 8, 16, 32} {
		raw := counter.NewNetwork(must(core.New(w, w)))
		rawRate := incDecThroughput(raw.Inc, raw.Dec, g, ops)
		// A spin budget of a few thousand keeps pairing effective even when
		// goroutines far outnumber processors (the eliminator yields while
		// parked); the default is tuned for spare-core spinning.
		elim, err := shard.NewEliminator(counter.NewNetwork(must(core.New(w, w))),
			shard.EliminatorOptions{Slots: 2, Spin: 2048})
		if err != nil {
			panic(err)
		}
		elimRate := incDecThroughput(elim.Inc, elim.Dec, g, ops)
		pct := 0.0
		if total := float64(2*elim.Pairs() + elim.Misses()); total > 0 {
			pct = 100 * float64(2*elim.Pairs()) / total
		}
		tb.AddRowf(g, fmt.Sprintf("%.0f", rawRate), fmt.Sprintf("%.0f", elimRate),
			fmt.Sprintf("%.1f", pct))
	}
	fmt.Print(tb.String())
}

// incDecThroughput drives g goroutines, half incrementing and half
// decrementing, and returns ops/ms.
func incDecThroughput(inc, dec func(pid int) int64, g, ops int) float64 {
	if g < 2 {
		g = 2
	}
	return drive(g, ops, func(pid int) {
		if pid%2 == 1 {
			dec(pid)
		} else {
			inc(pid)
		}
	})
}

type dtreeAdapter struct{ c *dtree.Counter }

func (d dtreeAdapter) Inc(int) int64 { return d.c.Inc() }
func (d dtreeAdapter) Name() string  { return "dtree" }

func dtreeCounter(w int) counter.Counter {
	c, err := dtree.NewCounter(w, dtree.DefaultOptions())
	if err != nil {
		panic(err)
	}
	return dtreeAdapter{c}
}

// throughput returns ops/ms for `g` goroutines sharing `ops` operations.
func throughput(c counter.Counter, g, ops int) float64 {
	return drive(g, ops, func(pid int) { c.Inc(pid) })
}

// drive is the shared measurement harness: g goroutines race through ops
// calls of op and the wall-clock rate comes back in ops/ms.
func drive(g, ops int, op func(pid int)) float64 {
	var remaining atomic.Int64
	remaining.Store(int64(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < g; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for remaining.Add(-1) >= 0 {
				op(pid)
			}
		}(pid)
	}
	wg.Wait()
	ms := float64(time.Since(start).Microseconds()) / 1000
	if ms == 0 {
		ms = 1e-3
	}
	return float64(ops) / ms
}

// E13 distributed: message-passing emulation throughput.
func expDist(ops int) {
	const w = 8
	fmt.Printf("distributed emulation throughput, ops/ms (%d ops per cell)\n\n", ops)
	tb := stats.NewTable("goroutines", "dist:bitonic(8)", "dist:C(8,8)", "dist:C(8,24)")
	nets := []func() *network.Network{
		func() *network.Network { return must(bitonic.New(w)) },
		func() *network.Network { return must(core.New(w, 8)) },
		func() *network.Network { return must(core.New(w, 24)) },
	}
	for _, g := range []int{1, 4, 16} {
		row := []any{g}
		for _, mk := range nets {
			cl := distnet.NewCluster(mk(), distnet.Config{LinkBuffer: 4})
			c := cl.NewCounter()
			row = append(row, fmt.Sprintf("%.0f", throughput(distAdapter{c, "dist:" + cl.Topology()}, g, ops)))
			c.Close()
			cl.Stop()
		}
		tb.AddRowf(row...)
	}
	fmt.Print(tb.String())
}

type distAdapter struct {
	c    *distnet.Counter
	name string
}

// Inc: the message-passing link cannot fail, so an error is a bug here.
func (d distAdapter) Inc(pid int) int64 { return must(d.c.Inc(pid)) }
func (d distAdapter) Name() string      { return d.name }

// E25: messages (distnet) and TCP round trips (tcpnet) per token under
// the batched protocol, as the batch size grows. Counts are exact and
// host-independent — this is the table the ≥5x acceptance floor at k=64
// is read off.
func expDistbatch() {
	const w, t, shards, batches = 8, 24, 3, 16
	fmt.Printf("E25: distributed cost per token, batched protocol, C(%d,%d) (depth %d)\n\n",
		w, t, must(core.New(w, t)).Depth())
	tb := stats.NewTable("k", "distnet msgs/token", "tcpnet rpcs/token", "single-token floor")
	for _, k := range []int{1, 8, 64, 512} {
		// distnet: wavefront messages, billed to the client session that
		// injected them.
		topo := must(core.New(w, t))
		dist := distnet.NewCluster(topo, distnet.Config{LinkBuffer: 4})
		dctr := dist.NewCounterPool(1)
		var vals []int64
		var err error
		for i := 0; i < batches; i++ {
			if vals, err = dctr.IncBatch(i, k, vals[:0]); err != nil {
				panic(err)
			}
		}
		msgs := float64(dctr.RPCs()) / float64(batches*k)
		dctr.Close()
		dist.Stop()

		// tcpnet: STEPN/CELLN round trips, counted at the client.
		cluster, stop, err := tcpnet.StartCluster(topo, shards)
		if err != nil {
			panic(err)
		}
		sess, err := cluster.NewSession()
		if err != nil {
			panic(err)
		}
		for i := 0; i < batches; i++ {
			vals, err = sess.IncBatch(i, k, vals[:0])
			if err != nil {
				panic(err)
			}
		}
		rpcs := float64(sess.RPCs()) / float64(batches*k)
		sess.Close()
		stop()
		tb.AddRowf(k, fmt.Sprintf("%.2f", msgs), fmt.Sprintf("%.2f", rpcs),
			fmt.Sprintf("%d / %d", topo.Depth(), cluster.Hops()))
	}
	fmt.Print(tb.String())
	fmt.Println("\n(single-token floor: depth msgs for distnet, depth+1 rpcs for tcpnet)")
}

// E26: sharded deployments — cost per token/op as the stripe count S
// grows. Counts are exact and host-independent: each stripe is an
// independent deployment, so per-shard msgs/token must hold the E25
// batched floor (0.67 distnet / 1.05 tcpnet at k=64) at every S while
// the hot links multiply by S.
func expDistshard(maxS int) {
	const w, t, batches, k = 8, 24, 16, 64
	if maxS < 1 {
		maxS = 1
	}
	var Ss []int
	for s := 1; s <= maxS; s *= 2 {
		Ss = append(Ss, s)
	}
	if last := Ss[len(Ss)-1]; last != maxS {
		Ss = append(Ss, maxS)
	}
	fmt.Printf("E26: sharded deployment cost, C(%d,%d), %d batches of k=%d, pid-striped\n\n",
		w, t, batches, k)
	tb := stats.NewTable("S", "distnet msgs/token", "tcpnet rpcs/token",
		"distnet msgs/op coalesced", "tcpnet rpcs/op coalesced")
	for _, S := range Ss {
		// Batched pipelines, striped by pid: exact aggregate message and
		// round-trip bills per token.
		topo := must(core.New(w, t))
		dctr, stop := distFleet(topo, S, distnet.Config{LinkBuffer: 4})
		var vals []int64
		var err error
		for i := 0; i < batches; i++ {
			if vals, err = dctr.IncBatch(i, k, vals[:0]); err != nil {
				panic(err)
			}
		}
		// The dist Read sums the exit cells locally: no messages to
		// subtract from the bill.
		if got, err := dctr.Read(); err != nil || got != int64(batches*k) {
			panic(fmt.Sprintf("distnet S=%d: Read (%d, %v) != %d", S, got, err, batches*k))
		}
		dMsgs := float64(dctr.RPCs()) / float64(batches*k)
		stop()

		tctr, stop := tcpFleet(topo, S, 1)
		for i := 0; i < batches; i++ {
			if vals, err = tctr.IncBatch(i, k, vals[:0]); err != nil {
				panic(err)
			}
		}
		if got, err := tctr.Read(); err != nil || got != int64(batches*k) {
			panic(fmt.Sprintf("tcpnet S=%d: Read (%d, %v) != %d", S, got, err, batches*k))
		}
		tRPCs := float64(tctr.RPCs()) / float64(batches*k)
		// The Read side costs OutWidth READ rpcs per stripe; keep the
		// batched column pure by subtracting it.
		tRPCs -= float64(S*topo.OutWidth()) / float64(batches*k)
		stop()

		// Coalesced single-token workloads (no explicit batching): exact
		// msgs/op and rpcs/op under a concurrent driver.
		dMsgsOp := distshardCoalesced(S, w, t)
		tRPCsOp := tcpshardCoalesced(S, w, t)
		tb.AddRowf(S, fmt.Sprintf("%.2f", dMsgs), fmt.Sprintf("%.2f", tRPCs),
			fmt.Sprintf("%.2f", dMsgsOp), fmt.Sprintf("%.2f", tRPCsOp))
	}
	fmt.Print(tb.String())
	fmt.Println("\n(E25 single-deployment floors at k=64: 0.67 msgs/token distnet, 1.05 rpcs/token tcpnet)")
}

// startFleet starts S deployments and stripes them; stop closes the
// fleet's counters, then the deployments under them.
func startFleet[D xport.Deployment](S, poolWidth int, start func() (D, func(), error)) (*xport.ShardedCounter, func()) {
	stripes, stop, err := xport.StartStripes(S, start)
	if err != nil {
		panic(err)
	}
	ctr := must(xport.NewFleet(stripes, poolWidth))
	return ctr, func() { ctr.Close(); stop() }
}

// distFleet stripes S message-passing deployments of topo.
func distFleet(topo *network.Network, S int, cfg distnet.Config) (*xport.ShardedCounter, func()) {
	return startFleet(S, 0, func() (*distnet.Cluster, func(), error) {
		cl := distnet.NewCluster(topo, cfg)
		return cl, cl.Stop, nil
	})
}

// tcpFleet stripes S loopback TCP deployments of topo, 3 shards each.
func tcpFleet(topo *network.Network, S, poolWidth int) (*xport.ShardedCounter, func()) {
	return startFleet(S, poolWidth, func() (*tcpnet.Cluster, func(), error) {
		return tcpnet.StartCluster(topo, 3)
	})
}

// distshardCoalesced drives a concurrent Inc workload against a sharded
// distnet fleet and returns msgs/op (hop latency opens windows).
func distshardCoalesced(S, w, t int) float64 {
	ctr, stop := distFleet(must(core.New(w, t)), S,
		distnet.Config{LinkBuffer: 4, HopLatency: 50 * time.Microsecond})
	defer stop()
	return coalescedPerOp(ctr)
}

// tcpshardCoalesced drives the same workload against a sharded TCP fleet
// and returns rpcs/op.
func tcpshardCoalesced(S, w, t int) float64 {
	ctr, stop := tcpFleet(must(core.New(w, t)), S, 0)
	defer stop()
	return coalescedPerOp(ctr)
}

// coalescedPerOp runs 32 concurrent single-token callers against a fleet
// and returns its bill per operation.
func coalescedPerOp(ctr *xport.ShardedCounter) float64 {
	const procs, per = 32, 25
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := ctr.Inc(pid); err != nil {
					panic(err)
				}
			}
		}(pid)
	}
	wg.Wait()
	return float64(ctr.RPCs()) / float64(procs*per)
}

// killNthWrite is a net.Conn that drops the connection at one exact
// frame boundary — the E27 kill column's fault injection.
type killNthWrite struct {
	net.Conn
	allow atomic.Int32
}

func newKillNthWrite(conn net.Conn, allow int32) *killNthWrite {
	k := &killNthWrite{Conn: conn}
	k.allow.Store(allow)
	return k
}

func (f *killNthWrite) Write(b []byte) (int, error) {
	if f.allow.Add(-1) < 0 {
		f.Conn.Close()
		return 0, fmt.Errorf("injected connection kill")
	}
	return f.Conn.Write(b)
}

// E27: exactly-once dedup overhead. The v2 protocol seq-numbers every
// mutating frame and the shards keep bounded per-client dedup windows;
// that must cost bytes and bookkeeping, never round trips — rpcs/token
// of the batched pipeline must hold the E25/E26 k=64 floor (1.05). The
// kill column injects one connection death at a frame boundary
// mid-workload: the bounded retry budget absorbs it, the replayed
// frames are answered from the dedup window (each counted as an rpc by
// the client), and the count stays EXACT — no gapped or duplicated
// values, the invariant E27 exists to demonstrate.
func expDedup() {
	const w, t, shards, batches = 8, 24, 3, 16
	fmt.Printf("E27: exactly-once dedup overhead, C(%d,%d), %d batches per row\n\n",
		w, t, batches)
	tb := stats.NewTable("k", "rpcs/token", "rpcs/token, kill+retry", "exact count (both)")
	for _, k := range []int{1, 8, 64, 512} {
		clean := dedupRun(w, t, shards, batches, k, false)
		killed := dedupRun(w, t, shards, batches, k, true)
		tb.AddRowf(k, fmt.Sprintf("%.2f", clean), fmt.Sprintf("%.2f", killed),
			fmt.Sprintf("%d", batches*k))
	}
	fmt.Print(tb.String())
	fmt.Println("\n(floor: E25/E26 record 1.05 rpcs/token at k=64; the kill column re-sends" +
		"\n a window whose replayed frames are deduped server-side, not re-executed)")
}

// dedupRun drives `batches` batched pipelines of k tokens through a
// pooled Counter, optionally killing the first session's first
// connection at a frame boundary mid-workload, verifies the exact
// count, and returns rpcs/token (read-side RPCs excluded).
func dedupRun(w, t, shards, batches, k int, kill bool) float64 {
	topo := must(core.New(w, t))
	cluster, stop, err := tcpnet.StartCluster(topo, shards)
	if err != nil {
		panic(err)
	}
	defer stop()
	if kill {
		var conns int32
		cluster.SetDialWrapper(func(conn net.Conn) net.Conn {
			if atomic.AddInt32(&conns, 1) == 1 {
				// The first dialed connection dies after 12 more frames —
				// mid-window for every k in the sweep.
				return newKillNthWrite(conn, 12)
			}
			return conn
		})
	}
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()
	var vals []int64
	for i := 0; i < batches; i++ {
		if vals, err = ctr.IncBatch(i, k, vals[:0]); err != nil {
			panic(fmt.Sprintf("E27 k=%d kill=%v: %v", k, kill, err))
		}
	}
	rpcs := ctr.RPCs() // mutating-frame round trips only, so far
	got, err := ctr.Read()
	if err != nil {
		panic(err)
	}
	if got != int64(batches*k) {
		panic(fmt.Sprintf("E27 k=%d kill=%v: Read %d != %d — values leaked",
			k, kill, got, batches*k))
	}
	return float64(rpcs) / float64(batches*k)
}

// E28: the UDP datagram transport under injected loss. The frame bill
// (rpcs/token, the E25-E27 unit) must hold the TCP 1.05 floor at k=64
// with zero loss — the transports send the same frames — while the
// datagram bill shows the MTU-packing win and the retransmit rate shows
// what reliability costs as the injected loss grows. Counts are
// panic-checked exact in every cell: loss, duplication and reordering
// never leak a value.
func expUDP() {
	const w, t, shards, batches, k = 8, 24, 3, 16, 64
	fmt.Printf("E28: UDP transport cost vs injected packet loss, C(%d,%d), %d batches of k=%d\n\n",
		w, t, batches, k)
	tb := stats.NewTable("loss%", "rpcs/token", "packets/token", "retrans/packet", "exact count")
	for _, loss := range []float64{0, 0.10, 0.25} {
		rpcs, pkts, retr := udpRun(w, t, shards, batches, k, loss)
		tb.AddRowf(fmt.Sprintf("%.0f", loss*100), fmt.Sprintf("%.2f", rpcs),
			fmt.Sprintf("%.2f", pkts), fmt.Sprintf("%.2f", retr),
			fmt.Sprintf("%d", batches*k))
	}
	fmt.Print(tb.String())
	fmt.Println("\n(floor: E25-E27 record 1.05 rpcs/token at k=64 over TCP; lossy rows inject" +
		"\n symmetric drop plus 10% duplication and reordering — retransmitted frames" +
		"\n are replayed from the shards' dedup windows, and the exact-count check" +
		"\n panics if any value leaks)")
}

// udpRun drives `batches` batched pipelines of k tokens through a
// pooled UDP Counter under the given injected loss rate (plus
// duplication and reordering on lossy runs), verifies the exact count,
// and returns (rpcs/token, packets/token, retransmits/packet) with
// read-side costs excluded.
func udpRun(w, t, shards, batches, k int, loss float64) (rpcs, pkts, retr float64) {
	topo := must(core.New(w, t))
	cluster, stop, err := udpnet.StartCluster(topo, shards)
	if err != nil {
		panic(err)
	}
	defer stop()
	if loss > 0 {
		cluster.SetRetransmitPolicy(wireRetry(), wireTimer())
		cluster.SetDialWrapper(udpnet.Faults{
			Drop: loss, Dup: 0.10, Reorder: 0.10, Seed: 42,
		}.Wrapper())
	}
	ctr := cluster.NewCounterPool(1)
	defer ctr.Close()
	var vals []int64
	for i := 0; i < batches; i++ {
		if vals, err = ctr.IncBatch(i, k, vals[:0]); err != nil {
			panic(fmt.Sprintf("E28 loss=%.2f: %v", loss, err))
		}
	}
	frames, packets, retrans := ctr.RPCs(), ctr.Packets(), ctr.Retransmits()
	got, err := ctr.Read()
	if err != nil {
		panic(err)
	}
	if got != int64(batches*k) {
		panic(fmt.Sprintf("E28 loss=%.2f: Read %d != %d — values leaked",
			loss, got, batches*k))
	}
	tokens := float64(batches * k)
	if packets == 0 {
		packets = 1
	}
	return float64(frames) / tokens, float64(packets) / tokens,
		float64(retrans) / float64(packets)
}

// wireRetry/wireTimer keep the lossy E28 rows quick without weakening
// the guarantee: more attempts, shorter jittered timers.
func wireRetry() wire.RetryPolicy {
	return wire.RetryPolicy{Attempts: 25, Budget: 60 * time.Second}
}

func wireTimer() wire.Backoff {
	return wire.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
}

// E29: what observability costs. The same C(8,24) workload the E27/E28
// tables bill runs twice — control plane detached, then attached with
// an HTTP scraper hammering /metrics for the whole run — and the frame
// bill must come out identical: every exported number is a read-side
// view over atomics the flights maintain anyway, so a scrape adds no
// RPC and blocks no flight. Wall-clock ns/token is reported for both
// modes (the attached row carries the scraper's CPU time, which stays
// within run-to-run noise). With -out, both modes plus the final
// mid-run scrape's series are written as JSON.
func expCtlplane(outPath string) {
	const w, t, shards, batches, k = 8, 24, 3, 16, 64
	fmt.Printf("E29: control-plane scrape overhead, C(%d,%d), %d batches of k=%d\n\n",
		w, t, batches, k)
	detached := ctlplaneRun(w, t, shards, batches, k, false)
	attached := ctlplaneRun(w, t, shards, batches, k, true)
	tb := stats.NewTable("mode", "rpcs/token", "ns/token", "mid-run scrapes")
	for _, r := range []ctlplaneResult{detached, attached} {
		tb.AddRowf(r.Mode, fmt.Sprintf("%.2f", r.RPCsPerToken),
			fmt.Sprintf("%.0f", r.NsPerToken), fmt.Sprintf("%d", r.Scrapes))
	}
	fmt.Print(tb.String())
	fmt.Println("\n(the rpcs/token column must be identical across modes: scrapes are" +
		"\n read-side views over the flight path's own atomics and add no frames;" +
		"\n see OPERATIONS.md for the metric reference)")
	if outPath != "" {
		writeBenchDoc(outPath, "E29", []ctlplaneResult{detached, attached}, nil)
	}
}

// benchDoc is the stable machine-readable envelope every -out write
// uses: a schema tag, the host stamp (wall-clock rows are meaningless
// without it), the experiment id and its rows. Downstream tooling keys
// on `schema`; adding fields is compatible, renaming them is not.
type benchDoc struct {
	Schema     string         `json:"schema"`
	Experiment string         `json:"experiment"`
	Host       benchHost      `json:"host"`
	Rows       any            `json:"rows"`
	Summary    map[string]any `json:"summary,omitempty"`
}

type benchHost struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

func writeBenchDoc(outPath, experiment string, rows any, summary map[string]any) {
	doc := benchDoc{
		Schema:     "countbench/v1",
		Experiment: experiment,
		Host: benchHost{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Rows:    rows,
		Summary: summary,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("\nwrote %s\n", outPath)
}

// ctlplaneResult is one E29 mode's bill; Series is the last mid-run
// /metrics scrape, stamped into the JSON output so a recorded run
// carries the fleet's own accounting alongside the bench's.
type ctlplaneResult struct {
	Mode         string           `json:"mode"`
	RPCsPerToken float64          `json:"rpcs_per_token"`
	NsPerToken   float64          `json:"ns_per_token"`
	Scrapes      int              `json:"scrapes"`
	Series       map[string]int64 `json:"series,omitempty"`
}

// ctlplaneRun drives the E29 workload through a pooled TCP Counter,
// optionally fronting the whole deployment (client plus every shard)
// with one admin endpoint and scraping it over HTTP in a tight loop
// for the duration.
func ctlplaneRun(w, t, shards, batches, k int, attached bool) ctlplaneResult {
	topo := must(core.New(w, t))
	addrs := make([]string, shards)
	var servers []*tcpnet.Shard
	for i := 0; i < shards; i++ {
		s, err := tcpnet.StartShard("127.0.0.1:0", topo, i, shards)
		if err != nil {
			panic(err)
		}
		servers = append(servers, s)
		addrs[i] = s.Addr()
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	ctr := tcpnet.NewCluster(topo, addrs).NewCounterPool(1)
	defer ctr.Close()

	res := ctlplaneResult{Mode: "detached"}
	stopScrape := func() {}
	if attached {
		res.Mode = "attached"
		fleet := ctlplane.NewFleet("countbench-e29", "node")
		fleet.Add("client", ctr)
		for i, s := range servers {
			fleet.Add(fmt.Sprintf("shard%d", i), s)
		}
		srv, err := ctlplane.Serve("127.0.0.1:0", fleet)
		if err != nil {
			panic(err)
		}
		url := "http://" + srv.Addr() + "/metrics"
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					panic(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					panic(err)
				}
				res.Scrapes++
				res.Series = parseScrape(string(body))
				// Prometheus scrapes on an interval, not a hot loop;
				// 2ms here is already ~7500x its default cadence.
				time.Sleep(2 * time.Millisecond)
			}
		}()
		stopScrape = func() { close(stop); <-done; srv.Close() }
	}

	begin := time.Now()
	var vals []int64
	var err error
	for i := 0; i < batches; i++ {
		if vals, err = ctr.IncBatch(i, k, vals[:0]); err != nil {
			panic(fmt.Sprintf("E29 attached=%v: %v", attached, err))
		}
	}
	elapsed := time.Since(begin)
	stopScrape()
	rpcs := ctr.RPCs()
	got, err := ctr.Read()
	if err != nil {
		panic(err)
	}
	if got != int64(batches*k) {
		panic(fmt.Sprintf("E29 attached=%v: Read %d != %d — values leaked",
			attached, got, batches*k))
	}
	tokens := float64(batches * k)
	res.RPCsPerToken = float64(rpcs) / tokens
	res.NsPerToken = float64(elapsed.Nanoseconds()) / tokens
	return res
}

// E30: the raw-speed datagram path. The same exactly-once workload —
// G concurrent clients driving batched increments through a 4-shard
// C(8,24) fleet — runs against the untuned shard (one inline worker,
// one datagram per syscall) with a session window of 1, and tuned
// (worker pool, recvmmsg/sendmmsg bursts, the -pipeline window), over
// two networks: raw loopback, where the bill is pure CPU and the win is
// syscall amortization, and an emulated 500µs one-way request latency.
// Both rows run the ONE client engine: a session at any window fans a
// layer out to every shard before awaiting any, so the "serial" row
// already pays one round trip per layer, not one per shard exchange —
// what separates the rows under latency is the shard's worker pool and
// the wider window on multi-datagram phases. The guarantee columns must
// not move: rpcs/token holds the E25-E28 1.05 floor and the count is
// panic-checked exact in every cell. allocs/op (the whole-process
// malloc delta per IncBatch, across clients AND shards) pins the
// steady-state zero-allocation claim on the loopback rows; the latency
// rows skip it because the injector itself allocates (a timer per
// delayed datagram).
func expUDPSpeed(workers, pipeline int, outPath string) {
	const w, t, shards, G, k = 8, 24, 8, 8, 64
	const rtt = 500 * time.Microsecond
	fmt.Printf("E30: raw-speed datagram path, C(%d,%d), %d shards, %d clients, k=%d\n\n",
		w, t, shards, G, k)
	rows := []udpspeedRow{
		udpspeedRun("serial", "loopback", 0, w, t, shards, 1, 1, 1, G, 16, k),
		udpspeedRun("tuned", "loopback", 0, w, t, shards, workers, udpnet.DefaultShardBatch, pipeline, G, 16, k),
		udpspeedRun("serial", "rtt=500µs", rtt, w, t, shards, 1, 1, 1, G, 8, k),
		udpspeedRun("tuned", "rtt=500µs", rtt, w, t, shards, workers, udpnet.DefaultShardBatch, pipeline, G, 8, k),
	}
	tb := stats.NewTable("network", "mode", "workers", "batch", "pipeline",
		"tokens/sec", "ns/token", "rpcs/token", "allocs/op")
	for _, r := range rows {
		allocs := "-"
		if r.Network == "loopback" {
			allocs = fmt.Sprintf("%.1f", r.AllocsPerOp)
		}
		tb.AddRowf(r.Network, r.Mode, r.Workers, r.Batch, r.Pipeline,
			fmt.Sprintf("%.0f", r.TokensPerSec), fmt.Sprintf("%.0f", r.NsPerToken),
			fmt.Sprintf("%.2f", r.RPCsPerToken), allocs)
	}
	fmt.Print(tb.String())
	loopback := rows[1].TokensPerSec / rows[0].TokensPerSec
	latency := rows[3].TokensPerSec / rows[2].TokensPerSec
	fmt.Printf("\ntuned over the serial row (tokens/sec; both run the one window engine):\n")
	fmt.Printf("  loopback:   %.2fx  (syscall amortization only — loopback has no latency to hide)\n", loopback)
	fmt.Printf("  rtt=500µs:  %.2fx  (every window already pays one round trip per layer)\n", latency)
	fmt.Println("(all four cells are the same exactly-once protocol — same frames, same" +
		"\n dedup windows, panic-checked exact counts; only the engine underneath changed)")
	if outPath != "" {
		writeBenchDoc(outPath, "E30", rows, map[string]any{
			"speedup_loopback":  loopback,
			"speedup_rtt_500us": latency,
		})
	}
}

// udpspeedRow is one E30 mode's bill — the rows -out records.
type udpspeedRow struct {
	Mode          string  `json:"mode"`
	Network       string  `json:"network"`
	Workers       int     `json:"workers"`
	Batch         int     `json:"batch"`
	Pipeline      int     `json:"pipeline"`
	Clients       int     `json:"clients"`
	TokensPerSec  float64 `json:"tokens_per_sec"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	NsPerToken    float64 `json:"ns_per_token"`
	RPCsPerToken  float64 `json:"rpcs_per_token"`
	AllocsPerOp   float64 `json:"allocs_per_op,omitempty"`
}

// udpspeedRun boots one fleet at the given engine settings (delay > 0
// installs the latency injector on every request datagram), drives the
// G-client workload with per-session warmup (pools primed, scratch
// sized) outside the timed window, verifies the exact count, and returns
// the row.
func udpspeedRun(mode, network string, delay time.Duration, w, t, shards, workers, batch, pipeline, G, per, k int) udpspeedRow {
	topo := must(core.New(w, t))
	cluster, stop, err := udpnet.StartClusterConfig(topo, shards,
		udpnet.ShardConfig{Workers: workers, Batch: batch})
	if err != nil {
		panic(err)
	}
	defer stop()
	cluster.SetPipeline(pipeline)
	if delay > 0 {
		cluster.SetDialWrapper(udpnet.Faults{DelayProb: 1, Delay: delay, Seed: 30}.Wrapper())
	}
	sessions := make([]*udpnet.Session, G)
	scratch := make([][]int64, G)
	for i := range sessions {
		if sessions[i], err = cluster.NewSession(); err != nil {
			panic(err)
		}
		defer sessions[i].Close()
		// Warmup op: prime buffer pools, size scratch.
		if scratch[i], err = sessions[i].IncBatch(i, k, scratch[i][:0]); err != nil {
			panic(err)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	var wg sync.WaitGroup
	for pid := 0; pid < G; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			var err error
			for i := 0; i < per; i++ {
				if scratch[pid], err = sessions[pid].IncBatch(pid+i, k, scratch[pid][:0]); err != nil {
					panic(fmt.Sprintf("E30 %s pid %d: %v", mode, pid, err))
				}
			}
		}(pid)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&m1)

	var rpcs, packets int64
	for _, s := range sessions {
		rpcs += s.RPCs()
		packets += s.Packets()
	}
	chk, err := cluster.NewSession()
	if err != nil {
		panic(err)
	}
	got, err := chk.Read()
	chk.Close()
	if err != nil {
		panic(err)
	}
	if want := int64(G * (per + 1) * k); got != want { // +1: the warmup batches
		panic(fmt.Sprintf("E30 %s: Read %d != %d — values leaked", mode, got, want))
	}
	tokens := float64(G * per * k)
	ops := float64(G * per)
	secs := elapsed.Seconds()
	return udpspeedRow{
		Mode: mode, Network: network,
		Workers: workers, Batch: batch, Pipeline: pipeline, Clients: G,
		TokensPerSec:  tokens / secs,
		PacketsPerSec: float64(packets) / secs,
		NsPerToken:    float64(elapsed.Nanoseconds()) / tokens,
		// The warmup ops are inside the RPC counters but not the timed
		// window; their frame bill is identical per op, so scale by the
		// op ratio instead of re-counting.
		RPCsPerToken: float64(rpcs) / float64(G*(per+1)*k),
		AllocsPerOp:  float64(m1.Mallocs-m0.Mallocs) / ops,
	}
}

// parseScrape reads a Prometheus text body into series -> value.
func parseScrape(body string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseInt(line[cut+1:], 10, 64)
		if err != nil {
			continue
		}
		out[line[:cut]] = v
	}
	return out
}

// E13: host-independent discrete-event queueing simulation.
func expTimesim() {
	fmt.Println("queueing simulation (service=1, think=20, exponential): throughput / mean latency")
	rows := experiments.TimesimTable(16, 64, []int{16, 64, 128, 256}, 80)
	fmt.Print(experiments.FormatTimesimTable(16, 64, rows))

	fmt.Println("\nwith memory-contention service inflation (factor 0.5), n=256:")
	nets := []*network.Network{
		experiments.SingleBalancer(),
		must(bitonic.New(16)),
		must(periodic.New(16)),
		must(core.New(16, 16)),
		must(core.New(16, 64)),
	}
	for _, net := range nets {
		res := timesim.Run(net.Clone(), timesim.Config{
			Processes: 256, Ops: 256 * 60, ServiceTime: 1,
			Exponential: true, ContentionFactor: 0.5, Seed: 9,
		})
		fmt.Printf("  %-14s thr=%.4f  lat=%.0f  busiest-util=%.2f\n",
			net.Name(), res.Throughput, res.MeanLat, res.BusiestUse)
	}
}

// E18: linearizability observation.
func expLinearize() {
	fmt.Print(experiments.LinearizeReport(8, 8, 2000))
}

// E16/E17 ablations.
func expAblation() {
	fmt.Println("E17: C(w,t) with bitonic merger instead of M(t,δ) — depth blow-up")
	fmt.Print(experiments.AblationDepths([][2]int{{8, 8}, {8, 16}, {8, 32}, {16, 64}}))

	fmt.Println("\nE16: randomized initial states — observed output smoothness of C(8,8)")
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3; trial++ {
		net := must(core.New(8, 8))
		net.RandomizeInitialStates(rng)
		worst, err := network.MaxObservedSmoothness(net, 3, 2000, rng)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  trial %d: max observed smoothness %d (deterministic init would be 1)\n", trial, worst)
	}
}

// transportBoot starts one real transport deployment and hands back a
// pooled xport.Counter over it — the shared fixture for the
// cross-transport experiments (E31 bills, E32 latency).
type transportBoot struct {
	name string
	mk   func() (ctr *xport.Counter, stop func())
}

func transportBoots(topo *network.Network, shards int) []transportBoot {
	return []transportBoot{
		{"tcp", func() (*xport.Counter, func()) {
			cluster, stop, err := tcpnet.StartCluster(topo, shards)
			if err != nil {
				panic(err)
			}
			return cluster.NewCounterPool(1), stop
		}},
		{"udp", func() (*xport.Counter, func()) {
			cluster, stop, err := udpnet.StartCluster(topo, shards)
			if err != nil {
				panic(err)
			}
			return cluster.NewCounterPool(1), stop
		}},
		{"inproc", func() (*xport.Counter, func()) {
			cluster, stop, err := inproc.StartCluster(topo, shards)
			if err != nil {
				panic(err)
			}
			return cluster.NewCounterPool(1), stop
		}},
	}
}

// transportRow is one E31 cell's bill — the rows -out records.
type transportRow struct {
	Transport       string  `json:"transport"`
	K               int     `json:"k"`
	Tokens          int64   `json:"tokens"`
	RPCs            int64   `json:"rpcs"`
	RPCsPerToken    float64 `json:"rpcs_per_token"`
	NsPerToken      float64 `json:"ns_per_token"`
	PacketsPerToken float64 `json:"packets_per_token,omitempty"`
}

// E31: the transport seam's bill, measured. The same pooled Counter
// (internal/xport) drives the same C(4,8) walk over every link — TCP
// streams, UDP datagrams, the in-memory inproc transport — so the
// request-frame bill per token must be INTEGER-identical across
// transports at every batch size (the conformance suite pins this;
// here it is recorded with wall-clock context). What differs is pure
// link cost: ns/token separates the protocol's price from the
// socket's, and inproc is the protocol-only floor — counting-network
// machinery with zero kernel crossings. packets/token (UDP) shows the
// MTU packing amortizing frames into datagrams.
func expTransports(outPath string) {
	const w, t, shards = 4, 8, 2
	topo := must(core.New(w, t))
	fmt.Printf("E31: one protocol core over every transport, C(%d,%d), %d shards\n\n", w, t, shards)
	boots := transportBoots(topo, shards)

	var rows []transportRow
	bills := make(map[int]map[string]int64)
	for _, k := range []int{1, 64} {
		bills[k] = make(map[string]int64)
		for _, b := range boots {
			ctr, stop := b.mk()
			ops := 512
			if k > 1 {
				ops = 32
			}
			begin := time.Now()
			var scratch []int64
			var err error
			for i := 0; i < ops; i++ {
				if k == 1 {
					_, err = ctr.Inc(i)
				} else {
					scratch, err = ctr.IncBatch(i, k, scratch[:0])
				}
				if err != nil {
					panic(fmt.Sprintf("E31 %s k=%d: %v", b.name, k, err))
				}
			}
			elapsed := time.Since(begin)
			tokens := int64(ops * k)
			rpcs := ctr.RPCs()
			got, err := ctr.Read()
			if err != nil {
				panic(err)
			}
			if got != tokens {
				panic(fmt.Sprintf("E31 %s k=%d: Read %d != %d — values leaked", b.name, k, got, tokens))
			}
			row := transportRow{
				Transport:    b.name,
				K:            k,
				Tokens:       tokens,
				RPCs:         rpcs,
				RPCsPerToken: float64(rpcs) / float64(tokens),
				NsPerToken:   float64(elapsed.Nanoseconds()) / float64(tokens),
			}
			if b.name == "udp" {
				row.PacketsPerToken = float64(ctr.Packets()) / float64(tokens)
			}
			rows = append(rows, row)
			bills[k][b.name] = rpcs
			ctr.Close()
			stop()
		}
	}

	tb := stats.NewTable("transport", "k", "tokens", "rpcs", "rpcs/token", "ns/token", "packets/token")
	for _, r := range rows {
		packets := "-"
		if r.PacketsPerToken > 0 {
			packets = fmt.Sprintf("%.3f", r.PacketsPerToken)
		}
		tb.AddRowf(r.Transport, r.K, r.Tokens, r.RPCs,
			fmt.Sprintf("%.3f", r.RPCsPerToken), fmt.Sprintf("%.0f", r.NsPerToken), packets)
	}
	fmt.Print(tb.String())

	for k, byName := range bills {
		for name, rpcs := range byName {
			if ref := byName["tcp"]; rpcs != ref {
				panic(fmt.Sprintf("E31: frame bill diverges at k=%d: %s sent %d rpcs, tcp sent %d",
					k, name, rpcs, ref))
			}
		}
	}
	fmt.Println("\n(the rpcs column is integer-identical per k across all three transports —" +
		"\n the frame bill is a property of the walk, not the link; panic-checked here" +
		"\n and race-checked in internal/conformance)")
	if outPath != "" {
		writeBenchDoc(outPath, "E31", rows, map[string]any{
			"bill_identical":     true,
			"rpcs_per_token_k64": float64(bills[64]["tcp"]) / float64(32*64),
		})
	}
}

// latencyRow is one E32 transport×k cell: the flight-latency
// distribution (exact order statistics over per-op wall clocks) with
// the client histogram's own p99 beside it as a cross-check that the
// zero-alloc log-bucketed estimate brackets the truth.
type latencyRow struct {
	Transport    string  `json:"transport"`
	K            int     `json:"k"`
	Ops          int     `json:"ops"`
	Tokens       int64   `json:"tokens"`
	P50Ns        int64   `json:"p50_ns"`
	P95Ns        int64   `json:"p95_ns"`
	P99Ns        int64   `json:"p99_ns"`
	MaxNs        int64   `json:"max_ns"`
	HistP99Ns    float64 `json:"hist_p99_ns"`
	RPCsPerToken float64 `json:"rpcs_per_token"`
}

// pctNs is the exact q-th percentile of a sorted sample: the smallest
// element with at least ceil(q·n) observations at or below it.
func pctNs(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// histQuantileNs digs the client's own flight histogram out of a
// Gather and returns its q-quantile in nanoseconds — the number an
// operator would read off /metrics, as opposed to the exact order
// statistics the benchmark measures directly.
func histQuantileNs(samples []ctlplane.Sample, q float64) float64 {
	for _, s := range samples {
		if s.Name == wire.MetricClientFlightSeconds && s.Hist != nil {
			return s.Hist.Quantile(q) * 1e9
		}
	}
	return 0
}

// E32: what the new flight histograms actually record, measured. Each
// transport×k cell runs E31's workload shape and collects BOTH the
// exact per-op latency distribution (sorted wall clocks, so p50/p95/
// p99/max are true order statistics) and the client histogram's own
// p99 — the operator-facing number — so the committed table documents
// how tight the log-bucketed estimate is (buckets are 2× apart, so
// hist_p99 may read up to one bucket above p99). inproc is the
// protocol-only floor; tcp and udp add the socket's tail.
func expLatency(outPath string) {
	const w, t, shards = 4, 8, 2
	topo := must(core.New(w, t))
	fmt.Printf("E32: flight-latency distributions over every transport, C(%d,%d), %d shards\n\n", w, t, shards)
	boots := transportBoots(topo, shards)

	var rows []latencyRow
	for _, k := range []int{1, 64} {
		for _, b := range boots {
			ctr, stop := b.mk()
			ops := 512
			if k > 1 {
				ops = 64
			}
			samples := make([]int64, 0, ops)
			var scratch []int64
			var err error
			for i := 0; i < ops; i++ {
				begin := time.Now()
				if k == 1 {
					_, err = ctr.Inc(i)
				} else {
					scratch, err = ctr.IncBatch(i, k, scratch[:0])
				}
				if err != nil {
					panic(fmt.Sprintf("E32 %s k=%d: %v", b.name, k, err))
				}
				samples = append(samples, time.Since(begin).Nanoseconds())
			}
			// Gather BEFORE the verifying Read so the flight histogram
			// holds exactly the ops timed above.
			histP99 := histQuantileNs(ctr.Gather(), 0.99)
			tokens := int64(ops * k)
			rpcs := ctr.RPCs()
			got, err := ctr.Read()
			if err != nil {
				panic(err)
			}
			if got != tokens {
				panic(fmt.Sprintf("E32 %s k=%d: Read %d != %d — values leaked", b.name, k, got, tokens))
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			rows = append(rows, latencyRow{
				Transport:    b.name,
				K:            k,
				Ops:          ops,
				Tokens:       tokens,
				P50Ns:        pctNs(samples, 0.50),
				P95Ns:        pctNs(samples, 0.95),
				P99Ns:        pctNs(samples, 0.99),
				MaxNs:        samples[len(samples)-1],
				HistP99Ns:    histP99,
				RPCsPerToken: float64(rpcs) / float64(tokens),
			})
			ctr.Close()
			stop()
		}
	}

	tb := stats.NewTable("transport", "k", "ops", "p50 µs", "p95 µs", "p99 µs", "max µs", "hist p99 µs", "rpcs/token")
	for _, r := range rows {
		tb.AddRowf(r.Transport, r.K, r.Ops,
			fmt.Sprintf("%.1f", float64(r.P50Ns)/1e3),
			fmt.Sprintf("%.1f", float64(r.P95Ns)/1e3),
			fmt.Sprintf("%.1f", float64(r.P99Ns)/1e3),
			fmt.Sprintf("%.1f", float64(r.MaxNs)/1e3),
			fmt.Sprintf("%.1f", r.HistP99Ns/1e3),
			fmt.Sprintf("%.3f", r.RPCsPerToken))
	}
	fmt.Print(tb.String())
	fmt.Println("\n(exact order statistics from per-op wall clocks; hist p99 is the client's" +
		"\n own log-bucketed flight histogram read back through Gather — the same" +
		"\n number /metrics exports — and brackets the exact p99 from above by at" +
		"\n most one 2× bucket)")
	if outPath != "" {
		writeBenchDoc(outPath, "E32", rows, map[string]any{
			"hist_source": wire.MetricClientFlightSeconds,
			"note":        "hist_p99_ns is the bucket upper bound; exact percentiles from sorted per-op wall clocks",
		})
	}
}
