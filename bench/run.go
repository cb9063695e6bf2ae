package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// sliceLen is the estimator's unit: every timing metric is computed per
// slice and the run reports the median over slices.
const sliceLen = time.Second

// denseBits sizes the inproc-k1 uniqueness bitmap: room for 134M values,
// an order of magnitude beyond what one client can draw in a minute.
const denseBits = 1 << 27

// sliceLog is what one client records about one slice.
type sliceLog struct {
	lat    hist
	tokens int64
}

// client is one closed-loop caller. Everything it writes during the
// measured loop is preallocated here, so the loop itself allocates
// nothing (pinned by TestMeasuredLoopAllocatesNothing).
type client struct {
	id          int
	target      target
	pattern     []op
	sampleEvery int
	dst         []int64
	sliceLen    time.Duration
	slices      []sliceLog
	cpu         []time.Duration // client 0 only: process CPU at each slice start
	tr          *tracer
	seen        []uint64 // dense-range bitmap, inproc-k1 only

	next      int   // position in the op stream, continues across phases
	attempted int64 // ops issued, warm-up included
	tokens    int64 // tokens and antitokens moved, warm-up included
	failed    int64
	net       int64 // tokens minus antitokens issued, warm-up included
}

func newClient(id int, w *workload, seed int64, tgt target) *client {
	c := &client{
		id: id, target: tgt, pattern: w.pattern(seed, id), sampleEvery: w.sampleEvery,
		dst: make([]int64, 0, batchK),
	}
	if w.dense {
		c.seen = make([]uint64, denseBits/64)
	}
	return c
}

// do issues the next op of the stream and books it.
func (c *client) do() (tokens int64) {
	o := c.pattern[c.next%len(c.pattern)]
	c.next++
	c.attempted++
	var err error
	var v int64
	switch o.kind {
	case opInc:
		v, err = c.target.Inc(o.pid)
		if err == nil && c.seen != nil {
			c.mark(v)
		}
	case opIncBatch:
		c.dst, err = c.target.IncBatch(o.pid, o.k, c.dst[:0])
	case opDec:
		_, err = c.target.Dec(o.pid)
	case opRead:
		_, err = c.target.Read()
	}
	if err != nil {
		c.failed++
		return 0
	}
	c.net += o.net()
	c.tokens += o.tokens()
	return o.tokens()
}

// mark books a value in the uniqueness bitmap; a repeated or
// out-of-range value is a failed op.
func (c *client) mark(v int64) {
	if v < 0 || v >= denseBits {
		c.failed++
		return
	}
	word, bit := v/64, uint64(1)<<(v%64)
	if c.seen[word]&bit != 0 {
		c.failed++
	}
	c.seen[word] |= bit
}

// warm runs a fixed count of ops: caches fill, pools dial and lazily
// built scratch appears before anything is timed.
func (c *client) warm(n int) {
	for i := 0; i < n; i++ {
		c.do()
	}
}

// measure runs the closed loop until the slice index reaches
// len(c.slices). An op is booked in the slice it completes in. Latency
// is sampled on every sampleEvery-th op; tokens of unsampled ops are
// carried to the next sampled one, fewer than sampleEvery ops later.
func (c *client) measure(start time.Time) {
	cur := -1
	var carried int64
	for i := 0; ; i++ {
		if i%c.sampleEvery != 0 {
			carried += c.do()
			continue
		}
		kind := c.pattern[c.next%len(c.pattern)].kind
		t0 := time.Now()
		carried += c.do()
		t1 := time.Now()
		s := int(t1.Sub(start) / c.sliceLen)
		if s != cur {
			if c.cpu != nil {
				now := processCPU()
				for b := cur + 1; b <= s && b < len(c.cpu); b++ {
					c.cpu[b] = now
				}
			}
			if s >= len(c.slices) {
				return
			}
			cur = s
		}
		c.slices[s].lat.add(t1.Sub(t0).Nanoseconds())
		c.slices[s].tokens += carried
		carried = 0
		if c.tr != nil {
			c.tr.add(span{Start: c.tr.since(t0), End: c.tr.since(t1), Parent: -1, Kind: kindOp, Op: uint8(kind), Client: int8(c.id)})
		}
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is the outcome of one measured phase of one fleet.
type phase struct {
	sliceLen  time.Duration
	tokens    []float64 // per slice, all clients
	p50, p99  []float64 // per slice, µs, clients pooled
	cpu       []float64 // per slice, µs of process CPU per token (NaN: no token)
	samples   []int64   // per slice latency samples
	whole     hist
	allocs    uint64
	sysShare  float64
	ctxSw     int64
	gcCycles  uint32
	gcPauseMs float64
	heapMB    float64
	attempted int64 // warm-up included, like failed and net
	failed    int64
	net       int64
	// measuredOps and measuredTokens cover exactly the interval between
	// the two counter readings (the last op may complete past the final
	// slice), so count ratios divide like by like.
	measuredOps    int64
	measuredTokens int64
	before         counts
	after          counts
}

func (p *phase) totalTokens() float64 {
	var t float64
	for _, x := range p.tokens {
		t += x
	}
	return t
}

func (p *phase) minSamples() int64 {
	m := int64(math.MaxInt64)
	for _, s := range p.samples {
		m = min(m, s)
	}
	return m
}

// runPhase drives fleet f with the workload's clients: fixed-count
// warm-up, a GC, then nslices measured slices of length slice. tr, when
// set, is handed to the clients so op spans are recorded (the fleet was
// built over the same tracer's link decorator).
func runPhase(w *workload, f *fleet, seed int64, nslices int, slice time.Duration, tr *tracer) (*phase, error) {
	clients := make([]*client, w.clients)
	for i := range clients {
		c := newClient(i, w, seed, f.target)
		c.slices, c.sliceLen = make([]sliceLog, nslices), slice
		c.tr = tr
		clients[i] = c
	}
	clients[0].cpu = make([]time.Duration, nslices+1)

	each := func(fn func(c *client)) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(c)
			}()
		}
		wg.Wait()
	}
	each(func(c *client) { c.warm(w.warmupOps) })
	if tr != nil {
		tr.reset() // the decorators also saw the warm-up; only the measured ops have op spans
	}
	runtime.GC()

	p := &phase{sliceLen: slice, before: readCounts(f)}
	for _, c := range clients {
		p.measuredOps -= c.attempted
		p.measuredTokens -= c.tokens
	}
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	start := time.Now()
	each(func(c *client) { c.measure(start) })
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	p.after = readCounts(f)

	p.allocs = ms1.Mallocs - ms0.Mallocs
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	p.heapMB = float64(ms1.HeapInuse) / (1 << 20)
	user := ru1.Utime.Nano() - ru0.Utime.Nano()
	sys := ru1.Stime.Nano() - ru0.Stime.Nano()
	if user+sys > 0 {
		p.sysShare = float64(sys) / float64(user+sys)
	}
	p.ctxSw = ru1.Nvcsw + ru1.Nivcsw - ru0.Nvcsw - ru0.Nivcsw

	cpu := clients[0].cpu
	for s := 0; s < nslices; s++ {
		var pooled hist
		var tokens int64
		for _, c := range clients {
			pooled.merge(&c.slices[s].lat)
			tokens += c.slices[s].tokens
		}
		p.whole.merge(&pooled)
		p.tokens = append(p.tokens, float64(tokens))
		p.samples = append(p.samples, pooled.n)
		p.p50 = append(p.p50, pooled.quantile(0.50)/1e3)
		p.p99 = append(p.p99, pooled.quantile(0.99)/1e3)
		perToken := math.NaN()
		if tokens > 0 && cpu[s+1] > cpu[s] && cpu[s] > 0 {
			perToken = float64(cpu[s+1]-cpu[s]) / 1e3 / float64(tokens)
		}
		p.cpu = append(p.cpu, perToken)
	}
	fmt.Printf("  slice tokens:   %.0f\n  slice p50 us:   %.3g\n  slice p99 us:   %.3g\n  slice cpu/token: %.3g\n", p.tokens, p.p50, p.p99, p.cpu)
	for _, c := range clients {
		p.attempted += c.attempted
		p.measuredOps += c.attempted
		p.measuredTokens += c.tokens
		p.failed += c.failed
		p.net += c.net
	}
	if w.dense && !denseRange(clients[0].seen, p.net) {
		p.failed++
	}
	return p, nil
}

// denseRange reports whether exactly the values [0, n) are marked.
func denseRange(seen []uint64, n int64) bool {
	if n < 0 || n > denseBits {
		return false
	}
	for i, word := range seen {
		lo := int64(i) * 64
		var want uint64
		switch {
		case lo+64 <= n:
			want = math.MaxUint64
		case lo < n:
			want = uint64(1)<<(n-lo) - 1
		}
		if word != want {
			return false
		}
	}
	return true
}

// exact checks the run's quiescent count: what the deployment says it
// issued (Read over the wire, Issued in memory) must equal tokens minus
// antitokens the clients were handed.
func exact(f *fleet, net int64) error {
	got, err := f.target.Read()
	if err != nil {
		return fmt.Errorf("quiescent read: %w", err)
	}
	if got != net {
		return fmt.Errorf("quiescent count %d, clients issued %d", got, net)
	}
	return nil
}

// setupCycles is how many cold set-up cycles a run times. setup_s is
// the fastest of them. One cycle takes 0.1–0.5 ms, and what it waits for
// — goroutine starts, socket syscalls, wake-ups on the other vCPU — is
// where the host's noise lands: over 20 runs per workload the median of
// the issue's 11 cycles spread 9–44 % run to run, the median of 500
// cycles 10–27 %, their minimum 1–8 % (README.md, "Set-up"). Work added
// to set-up is in every cycle, so the fastest cycle shows it.
const setupCycles = 500

// coldSetup times build topology → start shards → dial pool → first
// token returned → Close on fleets that are then discarded, and returns
// every cycle's seconds.
func coldSetup(w *workload) ([]float64, error) {
	out := make([]float64, 0, setupCycles)
	for i := 0; i < setupCycles; i++ {
		start := time.Now()
		f, err := w.start(nil)
		if err != nil {
			return nil, err
		}
		_, err = f.target.Inc(0)
		f.close()
		if err != nil {
			return nil, fmt.Errorf("first token: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}
