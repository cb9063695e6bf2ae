package distnet

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bitonic"
	"repro/internal/butterfly"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/seq"
)

// distFamilies is the constructor matrix the batched protocol is gated
// on: the paper's C(w,t), the regular bitonic baseline, a smoothing
// butterfly, and a composed cascade.
func distFamilies(t *testing.T) []struct {
	name  string
	build func() (*network.Network, error)
} {
	t.Helper()
	return []struct {
		name  string
		build func() (*network.Network, error)
	}{
		{"C(8,16)", func() (*network.Network, error) { return core.New(8, 16) }},
		{"bitonic(8)", func() (*network.Network, error) { return bitonic.New(8) }},
		{"butterfly(8)", func() (*network.Network, error) { return butterfly.NewForward(8) }},
		{"composed", func() (*network.Network, error) {
			d, err := butterfly.NewForward(8)
			if err != nil {
				return nil, err
			}
			b, err := bitonic.New(8)
			if err != nil {
				return nil, err
			}
			return network.Cascade("composed", d, b)
		}},
	}
}

// Distributed execution must reach the same quiescent output counts as the
// arithmetic evaluation (§2.2 determinism, across process boundaries).
func TestMatchesQuiescent(t *testing.T) {
	net, err := core.New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	sys := Start(net, Config{})
	defer sys.Stop()

	const procs, per = 16, 200
	exits := make([][]int64, procs)
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		exits[pid] = make([]int64, net.OutWidth())
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				exits[pid][sys.Inject(pid%8)]++
			}
		}(pid)
	}
	wg.Wait()
	got := make([]int64, net.OutWidth())
	for _, e := range exits {
		for i, v := range e {
			got[i] += v
		}
	}
	if !seq.IsStep(got) {
		t.Fatalf("distributed exits %v not step", got)
	}
	x := make([]int64, 8)
	for pid := 0; pid < procs; pid++ {
		x[pid%8] += per
	}
	fresh, err := core.New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Quiescent(x)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(got, want) {
		t.Fatalf("distributed %v != quiescent %v", got, want)
	}
}

// newCounter deploys net and returns the coalescing client over it; the
// cleanup closes the counter before stopping the servers under it.
func newCounter(t testing.TB, net *network.Network, cfg Config) *Counter {
	t.Helper()
	cl := NewCluster(net, cfg)
	c := cl.NewCounter()
	t.Cleanup(func() {
		c.Close()
		cl.Stop()
	})
	return c
}

// mustInc is Inc on a link that cannot fail: any error is a test bug.
func mustInc(t testing.TB, c *Counter, pid int) int64 {
	v, err := c.Inc(pid)
	if err != nil {
		t.Error(err)
	}
	return v
}

func TestCounterUnique(t *testing.T) {
	net, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	c := newCounter(t, net, Config{LinkBuffer: 4})
	const procs, per = 8, 300
	vals := make([][]int64, procs)
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				vals[pid] = append(vals[pid], mustInc(t, c, pid))
			}
		}(pid)
	}
	wg.Wait()
	var all []int64
	for _, v := range vals {
		all = append(all, v...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("values not {0..m-1} at %d: %d", i, v)
		}
	}
}

// The tentpole gate: a batched distributed run must reach exactly the
// quiescent output counts of k sequential tokens, for every constructor
// family, under concurrent batch injection on every wire.
func TestBatchMatchesQuiescentEveryFamily(t *testing.T) {
	for _, fam := range distFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			net, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			sys := Start(net, Config{LinkBuffer: 2})
			defer sys.Stop()

			const per = 33 // tokens per (goroutine, wire) batch
			w := net.InWidth()
			tallies := make([][]int64, 2*w)
			var wg sync.WaitGroup
			for g := 0; g < 2*w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tallies[g] = sys.InjectBatch(g%w, per)
				}(g)
			}
			wg.Wait()
			got := make([]int64, net.OutWidth())
			for _, tl := range tallies {
				for i, v := range tl {
					got[i] += v
				}
			}
			x := make([]int64, w)
			for i := range x {
				x[i] = 2 * per
			}
			fresh, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Quiescent(x)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Equal(got, want) {
				t.Fatalf("batched distributed exits %v != quiescent %v", got, want)
			}
		})
	}
}

// Antitoken batches cancel token batches: same exit multiset, and the
// deployment is back in its initial state afterwards (the next single
// token behaves as on a fresh system).
func TestAntiBatchCancels(t *testing.T) {
	for _, fam := range distFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			net, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			sys := Start(net, Config{})
			defer sys.Stop()
			for _, k := range []int64{1, 7, 64} {
				tok := sys.InjectBatch(2, k)
				anti := sys.InjectAntiBatch(2, k)
				if !seq.Equal(tok, anti) {
					t.Fatalf("k=%d: token exits %v, antitoken exits %v", k, tok, anti)
				}
			}
			// All state cancelled: the next token exits where a fresh
			// network would send it.
			fresh, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sys.Inject(0), fresh.Traverse(0); got != want {
				t.Fatalf("after cancellation token exits %d, fresh network %d", got, want)
			}
		})
	}
}

// Batched flights interleaved with single tokens still land on the
// arithmetic prediction (mixed protocol traffic on the same deployment).
func TestBatchInterleavedWithSingles(t *testing.T) {
	net, err := core.New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	sys := Start(net, Config{})
	defer sys.Stop()
	got := make([]int64, net.OutWidth())
	x := make([]int64, 8)
	for round := 0; round < 5; round++ {
		for wire := 0; wire < 8; wire++ {
			for i, v := range sys.InjectBatch(wire, int64(3+round)) {
				got[i] += v
			}
			x[wire] += int64(3 + round)
			got[sys.Inject(wire)]++
			x[wire]++
		}
	}
	fresh, err := core.New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Quiescent(x)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(got, want) {
		t.Fatalf("mixed run %v != quiescent %v", got, want)
	}
}

// The headline economics: at k = 64 a batch crosses the deployment in at
// least 5x fewer messages per token than 64 single tokens (acceptance
// floor; the measured ratio is far higher). Message counts are exact and
// deterministic, not timing-dependent.
func TestBatchMessagesPerToken(t *testing.T) {
	build := func() (*System, *network.Network) {
		net, err := core.New(8, 24)
		if err != nil {
			t.Fatal(err)
		}
		return Start(net, Config{}), net
	}
	const k = 64
	singles, _ := build()
	defer singles.Stop()
	for i := int64(0); i < k; i++ {
		singles.Inject(0)
	}
	single := singles.Messages()

	batched, _ := build()
	defer batched.Stop()
	batched.InjectBatch(0, k)
	batch := batched.Messages()

	if batch*5 > single {
		t.Fatalf("msgs per token: batched %d/%d, singles %d/%d — less than the 5x floor",
			batch, k, single, k)
	}
	t.Logf("k=%d: %d msgs batched vs %d singles (%.1fx)", k, batch, single,
		float64(single)/float64(batch))
}

// Counter-level batching: IncBatch and DecBatch keep the deployment's
// value range dense, and DecBatch revokes exactly what IncBatch claimed.
func TestCounterBatchDense(t *testing.T) {
	net, err := core.New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := newCounter(t, net, Config{LinkBuffer: 2})

	var vals []int64
	for pid := 0; pid < 6; pid++ {
		if vals, err = c.IncBatch(pid, 20, vals); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("IncBatch values not dense at %d: %d", i, v)
		}
	}
	revoked, err := c.DecBatch(3, 120, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(revoked, func(i, j int) bool { return revoked[i] < revoked[j] })
	if !seq.Equal(revoked, vals) {
		t.Fatalf("DecBatch revoked %v, IncBatch claimed %v", revoked, vals)
	}
	if v := mustInc(t, c, 0); v != 0 {
		t.Fatalf("counter not back at origin after full revocation: Inc = %d", v)
	}
	if got, _ := c.IncBatch(0, 0, nil); len(got) != 0 {
		t.Fatalf("IncBatch k=0 returned %v", got)
	}
	if got, _ := c.DecBatch(0, -3, nil); len(got) != 0 {
		t.Fatalf("DecBatch k<0 returned %v", got)
	}
}

// A session bills exactly the messages its own injections caused: a lone
// counter's RPCs equal the System's shared message count, for singles,
// antitokens and wavefronts alike, and Read costs none.
func TestSessionBillsItsOwnMessages(t *testing.T) {
	net, err := core.New(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(net, Config{})
	defer cl.Stop()
	c := cl.NewCounterPool(1)
	defer c.Close()
	mustInc(t, c, 3)
	if got, want := c.RPCs(), int64(net.Depth()); got != want {
		t.Fatalf("one token billed %d messages, want depth %d", got, want)
	}
	if _, err := c.IncBatch(5, 64, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dec(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.RPCs(), cl.sys.Messages(); got != want {
		t.Fatalf("sessions billed %d messages, the links carried %d", got, want)
	}
}

// Coalescing: concurrent Inc callers sharing input wires merge into
// batched flights; the values must remain exactly {0..m-1}, and the
// deployment must spend fewer messages than the uncoalesced protocol
// does on the identical workload, proving windows actually formed. The
// concurrent system gets a hop latency so flights are genuinely in the
// network long enough for a backlog to pool (on one CPU a latency-free
// flight completes before the scheduler runs a second caller); the
// baseline runs latency-free since message counts don't depend on time.
func TestCounterCoalescedDense(t *testing.T) {
	net, err := core.New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := newCounter(t, net, Config{LinkBuffer: 4, HopLatency: 50 * time.Microsecond})
	const procs, per = 48, 10
	vals := make([][]int64, procs)
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				vals[pid] = append(vals[pid], mustInc(t, c, pid))
			}
		}(pid)
	}
	wg.Wait()
	var all []int64
	for _, v := range vals {
		all = append(all, v...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("coalesced values not {0..m-1} at %d: %d", i, v)
		}
	}
	// Baseline: the identical workload run sequentially, where no window
	// can form and every token pays its full per-hop message cost.
	net2, err := core.New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	c2 := newCounter(t, net2, Config{LinkBuffer: 4})
	for i := 0; i < per; i++ {
		for pid := 0; pid < procs; pid++ {
			mustInc(t, c2, pid)
		}
	}
	if got, base := c.RPCs(), c2.RPCs(); got >= base {
		t.Fatalf("coalescing saved nothing: %d messages concurrent vs %d sequential", got, base)
	} else {
		t.Logf("messages: %d coalesced vs %d sequential (%.1fx fewer)", got, base,
			float64(base)/float64(got))
	}
}

func TestInjectBatchPanicsOnNegative(t *testing.T) {
	net, err := core.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := Start(net, Config{})
	defer sys.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("InjectBatch(-1) did not panic")
		}
	}()
	sys.InjectBatch(0, -1)
}

func TestHopLatency(t *testing.T) {
	net, err := core.New(2, 2) // depth 1
	if err != nil {
		t.Fatal(err)
	}
	sys := Start(net, Config{HopLatency: 5 * time.Millisecond})
	defer sys.Stop()
	start := time.Now()
	sys.Inject(0)
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

func TestStopIdempotent(t *testing.T) {
	net, err := core.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := Start(net, Config{})
	sys.Inject(0)
	sys.Stop()
	sys.Stop() // must not panic
}

func TestString(t *testing.T) {
	net, err := core.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys := Start(net, Config{LinkBuffer: 2})
	defer sys.Stop()
	if sys.String() == "" {
		t.Fatal("empty description")
	}
}
