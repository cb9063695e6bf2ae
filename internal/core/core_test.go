package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/seq"
)

func TestValid(t *testing.T) {
	cases := []struct {
		w, t int
		want bool
	}{
		{2, 2, true}, {2, 4, true}, {2, 6, true}, {4, 4, true}, {4, 8, true},
		{8, 8, true}, {8, 16, true}, {8, 24, true}, {16, 64, true},
		{3, 3, false}, {6, 6, false}, {4, 6, false}, {4, 2, false},
		{1, 1, false}, {0, 0, false}, {4, 0, false},
	}
	for _, c := range cases {
		if got := Valid(c.w, c.t); got != c.want {
			t.Errorf("Valid(%d,%d) = %v, want %v", c.w, c.t, got, c.want)
		}
	}
}

// E1 / Theorem 4.1: depth(C(w,t)) = (lg²w + lgw)/2, independent of t.
func TestDepthFormula(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16, 32, 64} {
		for _, p := range []int{1, 2, 3, 4} {
			n, err := New(w, p*w)
			if err != nil {
				t.Fatalf("New(%d,%d): %v", w, p*w, err)
			}
			if got, want := n.Depth(), DepthFormula(w); got != want {
				t.Errorf("depth(C(%d,%d)) = %d, want %d", w, p*w, got, want)
			}
		}
	}
}

func TestDepthFormulaValues(t *testing.T) {
	want := map[int]int{2: 1, 4: 3, 8: 6, 16: 10, 32: 15, 64: 21, 128: 28}
	for w, d := range want {
		if got := DepthFormula(w); got != d {
			t.Errorf("DepthFormula(%d) = %d, want %d", w, got, d)
		}
	}
}

// E3 / Theorem 4.2: C(w,t) is a counting network. Exhaustive small sweeps
// plus randomized large inputs.
func TestCountingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		w, t       int
		exhaustive int
		trials     int
	}{
		{2, 2, 8, 200}, {2, 8, 8, 200},
		{4, 4, 6, 300}, {4, 8, 6, 300}, {4, 12, 5, 300},
		{8, 8, 4, 300}, {8, 16, 4, 300}, {8, 32, 3, 300},
		{16, 16, 0, 400}, {16, 32, 0, 400}, {16, 64, 0, 400},
		{32, 32, 0, 200}, {32, 160, 0, 200},
	}
	for _, c := range cases {
		n, err := New(c.w, c.t)
		if err != nil {
			t.Fatal(err)
		}
		if err := network.CheckCounting(n, c.exhaustive, c.trials, rng); err != nil {
			t.Errorf("C(%d,%d): %v", c.w, c.t, err)
		}
	}
}

// Property-based: random input count vectors on random valid (w,t) always
// produce step outputs preserving the sum.
func TestQuickCounting(t *testing.T) {
	type key struct{ w, t int }
	cache := map[key]*network.Network{}
	f := func(wExp, pRaw uint8, counts []uint16) bool {
		w := 2 << (wExp % 4) // 2..16
		p := int(pRaw%3) + 1 // 1..3
		k := key{w, p * w}
		n, ok := cache[k]
		if !ok {
			var err error
			n, err = New(w, p*w)
			if err != nil {
				return false
			}
			cache[k] = n
		}
		x := make([]int64, w)
		for i := range x {
			if i < len(counts) {
				x[i] = int64(counts[i] % 512)
			}
		}
		y, err := n.Quiescent(x)
		if err != nil {
			return false
		}
		return seq.IsStep(y) && seq.Sum(y) == seq.Sum(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// E3 concurrent: a fully concurrent run must agree with the arithmetic
// quiescent prediction, and the output must be step.
func TestConcurrentStep(t *testing.T) {
	for _, c := range []struct{ w, tt int }{{4, 8}, {8, 8}, {8, 16}, {16, 64}} {
		n, err := New(c.w, c.tt)
		if err != nil {
			t.Fatal(err)
		}
		const per = 300
		nProcs := 2 * c.w
		exits := make([][]int64, nProcs)
		var wg sync.WaitGroup
		for pid := 0; pid < nProcs; pid++ {
			exits[pid] = make([]int64, n.OutWidth())
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				wire := pid % c.w
				for i := 0; i < per; i++ {
					exits[pid][n.Traverse(wire)]++
				}
			}(pid)
		}
		wg.Wait()
		got := make([]int64, n.OutWidth())
		for _, e := range exits {
			for i, v := range e {
				got[i] += v
			}
		}
		if !seq.IsStep(got) {
			t.Errorf("C(%d,%d): concurrent output %v not step", c.w, c.tt, got)
		}
		x := make([]int64, c.w)
		for pid := 0; pid < nProcs; pid++ {
			x[pid%c.w] += per
		}
		fresh, err := New(c.w, c.tt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Quiescent(x)
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Equal(got, want) {
			t.Errorf("C(%d,%d): concurrent %v != quiescent %v", c.w, c.tt, got, want)
		}
	}
}

// E8 / Fig. 3: block decomposition structure.
func TestBlockDecomposition(t *testing.T) {
	for _, c := range []struct{ w, tt, p int }{{8, 16, 2}, {8, 8, 1}, {16, 64, 4}, {4, 12, 3}} {
		n, err := New(c.w, c.tt)
		if err != nil {
			t.Fatal(err)
		}
		lgw := log2(c.w)
		blocks := Decompose(n)
		// Na: lgw-1 layers of w/2 (2,2)-balancers each.
		if got, want := blocks.Na.Layers, lgw-1; got != want {
			t.Errorf("C(%d,%d): Na layers = %d, want %d", c.w, c.tt, got, want)
		}
		if got, want := blocks.Na.Balancers, (lgw-1)*c.w/2; got != want {
			t.Errorf("C(%d,%d): Na balancers = %d, want %d", c.w, c.tt, got, want)
		}
		for a := range blocks.Na.Arities {
			if a != "(2,2)" {
				t.Errorf("C(%d,%d): Na contains %s balancers", c.w, c.tt, a)
			}
		}
		// Nb: one layer of w/2 (2,2p)-balancers.
		if blocks.Nb.Layers != 1 || blocks.Nb.Balancers != c.w/2 {
			t.Errorf("C(%d,%d): Nb = %+v", c.w, c.tt, blocks.Nb)
		}
		wantArity := "(2," + itoa(2*c.p) + ")"
		if blocks.Nb.Arities[wantArity] != c.w/2 {
			t.Errorf("C(%d,%d): Nb arities = %v, want all %s", c.w, c.tt, blocks.Nb.Arities, wantArity)
		}
		// Nc: (lg²w - lgw)/2 layers of t/2 (2,2)-balancers each.
		wantNcLayers := (lgw*lgw - lgw) / 2
		if blocks.Nc.Layers != wantNcLayers {
			t.Errorf("C(%d,%d): Nc layers = %d, want %d", c.w, c.tt, blocks.Nc.Layers, wantNcLayers)
		}
		if got, want := blocks.Nc.Balancers, wantNcLayers*c.tt/2; got != want {
			t.Errorf("C(%d,%d): Nc balancers = %d, want %d", c.w, c.tt, got, want)
		}
		for a := range blocks.Nc.Arities {
			if a != "(2,2)" {
				t.Errorf("C(%d,%d): Nc contains %s balancers", c.w, c.tt, a)
			}
		}
	}
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

// E7 / Lemma 6.6: the prefix C'(w,t) is s-smoothing, s = floor(w·lgw/t)+2.
func TestPrefixSmoothing(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, c := range []struct{ w, tt int }{
		{4, 4}, {4, 8}, {8, 8}, {8, 16}, {8, 32}, {16, 16}, {16, 64}, {16, 128},
	} {
		n, err := NewPrefix(c.w, c.tt)
		if err != nil {
			t.Fatal(err)
		}
		if n.Depth() != log2(c.w) {
			t.Errorf("depth(C'(%d,%d)) = %d, want %d", c.w, c.tt, n.Depth(), log2(c.w))
		}
		s := PrefixSmoothness(c.w, c.tt)
		if err := network.CheckSmoothing(n, s, 3, 400, rng); err != nil {
			t.Errorf("C'(%d,%d) not %d-smoothing: %v", c.w, c.tt, s, err)
		}
	}
}

// C″(w) (Fig. 16 right) is lgw-smoothing (used inside Lemma 6.6's proof).
func TestPrefix22Smoothing(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, w := range []int{2, 4, 8, 16, 32} {
		n, err := NewPrefix22(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := network.CheckSmoothing(n, int64(log2(w)), 3, 400, rng); err != nil {
			t.Errorf("C″(%d) not lgw-smoothing: %v", w, err)
		}
	}
}

func TestLadderStructure(t *testing.T) {
	n, err := NewLadder(8)
	if err != nil {
		t.Fatal(err)
	}
	if n.Depth() != 1 || n.Size() != 4 {
		t.Fatalf("L(8): depth=%d size=%d", n.Depth(), n.Size())
	}
	// Balancer i pairs input wires i and i+4 and output wires i and i+4.
	for i := 0; i < 4; i++ {
		if nd, port := n.InputDest(i); nd != i || port != 0 {
			t.Errorf("input %d feeds (%d,%d)", i, nd, port)
		}
		if nd, port := n.InputDest(i + 4); nd != i || port != 1 {
			t.Errorf("input %d feeds (%d,%d)", i+4, nd, port)
		}
		if nd, port := n.OutputSource(i); nd != i || port != 0 {
			t.Errorf("output %d from (%d,%d)", i, nd, port)
		}
		if nd, port := n.OutputSource(i + 4); nd != i || port != 1 {
			t.Errorf("output %d from (%d,%d)", i+4, nd, port)
		}
	}
}

// Ladder invariant used in Theorem 4.2's proof: the two output halves have
// sums differing by at most w/2, whatever the input.
func TestLadderHalfDifference(t *testing.T) {
	n, err := NewLadder(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		x := make([]int64, 8)
		for i := range x {
			x[i] = rng.Int63n(100)
		}
		y, err := n.Quiescent(x)
		if err != nil {
			t.Fatal(err)
		}
		first, second := seq.Halves(y)
		d := seq.Sum(first) - seq.Sum(second)
		if d < 0 || d > 4 {
			t.Fatalf("ladder half difference %d outside [0,4] for input %v", d, x)
		}
	}
}

func TestInvalidParameters(t *testing.T) {
	for _, c := range []struct{ w, tt int }{{3, 3}, {4, 6}, {0, 0}, {2, 3}, {8, 4}} {
		if _, err := New(c.w, c.tt); err == nil {
			t.Errorf("New(%d,%d) accepted", c.w, c.tt)
		}
		if _, err := NewPrefix(c.w, c.tt); err == nil {
			t.Errorf("NewPrefix(%d,%d) accepted", c.w, c.tt)
		}
	}
	if _, err := NewPrefix22(6); err == nil {
		t.Error("NewPrefix22(6) accepted")
	}
	if _, err := NewLadder(3); err == nil {
		t.Error("NewLadder(3) accepted")
	}
}

// E9 / Fig. 1: C(4,8) structural facts — 2+2 ladder/base balancers and a
// depth-1 merger of width 8; overall: in 4, out 8, depth 3.
func TestFigure1C48(t *testing.T) {
	n, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n.InWidth() != 4 || n.OutWidth() != 8 || n.Depth() != 3 {
		t.Fatalf("C(4,8) geometry: in=%d out=%d depth=%d", n.InWidth(), n.OutWidth(), n.Depth())
	}
	census := network.ArityCensus(n)
	if census["(2,2)"] != 6 || census["(2,4)"] != 2 {
		t.Fatalf("C(4,8) census = %v, want 6 x (2,2) + 2 x (2,4)", census)
	}
	// Paper Fig. 1 example: the step property with the depicted totals.
	y, err := n.Quiescent([]int64{2, 3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsStep(y) || seq.Sum(y) != 8 {
		t.Fatalf("C(4,8) on Fig.1 input: %v", y)
	}
}

// E9 / Fig. 2: the regular networks C(4,4) and C(8,8).
func TestFigure2Regular(t *testing.T) {
	for _, c := range []struct{ w, depth, size int }{{4, 3, 6}, {8, 6, 24}} {
		n, err := New(c.w, c.w)
		if err != nil {
			t.Fatal(err)
		}
		if n.Depth() != c.depth {
			t.Errorf("C(%d,%d) depth = %d, want %d", c.w, c.w, n.Depth(), c.depth)
		}
		if n.Size() != c.size {
			t.Errorf("C(%d,%d) size = %d, want %d", c.w, c.w, n.Size(), c.size)
		}
		census := network.ArityCensus(n)
		if len(census) != 1 || census["(2,2)"] != c.size {
			t.Errorf("C(%d,%d) census = %v", c.w, c.w, census)
		}
	}
}

// E9 / Fig. 3: C(8,16) balancer totals per block.
func TestFigure3C816(t *testing.T) {
	n, err := New(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n.InWidth() != 8 || n.OutWidth() != 16 || n.Depth() != 6 {
		t.Fatalf("C(8,16) geometry: in=%d out=%d depth=%d", n.InWidth(), n.OutWidth(), n.Depth())
	}
	b := Decompose(n)
	// Na: 2 layers x 4 balancers; Nb: 4 x (2,4); Nc: 3 layers x 8.
	if b.Na.Balancers != 8 || b.Nb.Balancers != 4 || b.Nc.Balancers != 24 {
		t.Fatalf("C(8,16) blocks: Na=%d Nb=%d Nc=%d", b.Na.Balancers, b.Nb.Balancers, b.Nc.Balancers)
	}
}

// Random initial states (E16): with randomized balancer initial states the
// network generally loses exact counting but the output must remain
// w-smooth-ish; we verify it still distributes within the smoothness of the
// deepest prefix plus merger tolerance. This documents the §7 open problem
// rather than asserting a theorem: we record observed smoothness <= lgw+1
// over the sweep for small networks.
func TestRandomInitAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n, err := New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	n.RandomizeInitialStates(rng)
	worst, err := network.MaxObservedSmoothness(n, 3, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if worst > int64(log2(8))+1 {
		t.Logf("observed smoothness %d with random initial states (informational)", worst)
	}
	if worst < 0 {
		t.Fatal("impossible smoothness")
	}
}

// TestNewAllocs pins what building a network costs: one arena for the
// balancers and flat wiring, not an object per balancer and a map of
// consumed ports (C(16,64) took 1110 allocations, C(8,24) 272 that way).
func TestNewAllocs(t *testing.T) {
	for _, c := range []struct {
		w, t int
		max  float64
	}{{16, 64, 150}, {8, 24, 70}} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := New(c.w, c.t); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("C(%d,%d): %.0f allocs", c.w, c.t, got)
		if got > c.max {
			t.Errorf("C(%d,%d) took %.0f allocations, want <= %.0f", c.w, c.t, got, c.max)
		}
	}
}
