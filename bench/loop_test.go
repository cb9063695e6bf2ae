package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
)

// nopTarget answers every op without allocating, so whatever
// AllocsPerRun sees is the harness's.
type nopTarget struct{ next int64 }

func (n *nopTarget) Inc(int) (int64, error) { n.next++; return n.next - 1, nil }
func (n *nopTarget) IncBatch(_, k int, dst []int64) ([]int64, error) {
	for i := 0; i < k; i++ {
		dst = append(dst, n.next)
		n.next++
	}
	return dst, nil
}
func (n *nopTarget) Dec(int) (int64, error) { n.next--; return n.next, nil }
func (n *nopTarget) Read() (int64, error)   { return n.next, nil }

// allocs_per_token is billed to the program only because the measured
// loop — op dispatch, clock reads, histogram, slice roll-over, CPU
// sample, dense-range bitmap, span recording — allocates nothing itself.
func TestMeasuredLoopAllocatesNothing(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := newClient(0, w, 1, &nopTarget{})
			c.seen = nil // nopTarget's values repeat across runs; the bitmap is exercised below
			c.sliceLen = 200 * time.Microsecond
			c.slices = make([]sliceLog, 10)
			c.cpu = make([]time.Duration, len(c.slices)+1)
			if traced {
				c.tr = newTracer(1 << 16)
			}
			if got := testing.AllocsPerRun(5, func() { c.measure(time.Now()) }); got != 0 {
				t.Errorf("%s (traced=%v): measured loop allocates %v times per run, want 0", w.name, traced, got)
			}
			if c.attempted == 0 || c.slices[0].lat.n == 0 {
				t.Errorf("%s: the loop measured nothing", w.name)
			}
		}
	}
	c := newClient(0, findWorkload("inproc-k1"), 1, &nopTarget{})
	if got := testing.AllocsPerRun(100, func() { c.warm(64) }); got != 0 {
		t.Errorf("dense-range bookkeeping allocates %v times per 64 ops, want 0", got)
	}
	if c.failed != 0 || !denseRange(c.seen, c.net) {
		t.Errorf("dense range broken on a counter that counts: failed=%d net=%d", c.failed, c.net)
	}
}

func TestDenseRangeCatchesGapsAndRepeats(t *testing.T) {
	c := newClient(0, findWorkload("inproc-k1"), 1, &nopTarget{})
	for _, v := range []int64{0, 1, 2, 4} { // 3 missing
		c.mark(v)
	}
	if denseRange(c.seen, 4) || denseRange(c.seen, 5) {
		t.Error("a gap at 3 passed the dense-range check")
	}
	c.mark(3)
	if c.failed != 0 || !denseRange(c.seen, 5) {
		t.Errorf("values 0..4 marked once each: failed=%d dense=%v", c.failed, denseRange(c.seen, 5))
	}
	c.mark(2)
	c.mark(-1)
	c.mark(denseBits)
	if c.failed != 3 {
		t.Errorf("a repeat and two out-of-range values counted %d failures, want 3", c.failed)
	}
	if !denseRange(make([]uint64, 4), 0) || denseRange(make([]uint64, 4), 1) {
		t.Error("empty bitmap: dense for n=0 only")
	}
}

// One short end-to-end phase per workload on the real program: ops
// succeed, the quiescent count is exact, every slice has samples and the
// six gated metrics come out positive.
func TestPhaseIsExactOnEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts loopback shards")
	}
	for _, w := range workloads {
		small := *w
		small.warmupOps = 200
		f, err := small.start(nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		p, err := runPhase(&small, f, 3, 4, 50*time.Millisecond, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := exact(f, p.net); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		f.close()
		if p.failed != 0 || p.measuredOps == 0 || p.minSamples() == 0 {
			t.Errorf("%s: failed=%d ops=%d min samples=%d", w.name, p.failed, p.measuredOps, p.minSamples())
		}
		for name, m := range endToEnd(p, []float64{0.5}) {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}
}

// The in-memory adapter's quiescent read is the counter's Issued().
func TestMemTargetReadsIssued(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := memTarget{counter.NewNetwork(topo)}
	for i := 0; i < 5; i++ {
		m.Inc(i)
	}
	m.Dec(0)
	if n, _ := m.Read(); n != 4 {
		t.Errorf("Read after 5 Inc and 1 Dec = %d, want 4", n)
	}
}
