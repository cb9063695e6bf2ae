package balancer

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestStepSequence(t *testing.T) {
	b := New(2, 3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := b.Step(); got != w {
			t.Fatalf("step %d = %d, want %d", i, got, w)
		}
	}
	if b.Count() != 7 {
		t.Fatalf("Count = %d", b.Count())
	}
	if b.State() != 1 {
		t.Fatalf("State = %d, want 1", b.State())
	}
}

func TestStepAntiCancels(t *testing.T) {
	b := New(2, 4)
	b.Step() // exits 0
	b.Step() // exits 1
	if got := b.StepAnti(); got != 1 {
		t.Fatalf("antitoken exits %d, want 1 (cancelling last token)", got)
	}
	if got := b.Step(); got != 1 {
		t.Fatalf("next token exits %d, want 1", got)
	}
}

func TestAntiFirst(t *testing.T) {
	// Antitoken on a fresh balancer: state goes negative; wire wraps.
	b := New(1, 4)
	if got := b.StepAnti(); got != 3 {
		t.Fatalf("first antitoken exits %d, want 3", got)
	}
	if got := b.Step(); got != 3 {
		t.Fatalf("token after negative state exits %d, want 3", got)
	}
}

// StepAntiN(n) must be indistinguishable from n back-to-back StepAnti
// calls: same final count, and DistributeInto over the returned index
// yields exactly the exit multiset of the singles.
func TestStepAntiNMatchesSingles(t *testing.T) {
	for _, c := range []struct {
		q       int
		init    int64
		preload int64 // tokens processed before the anti batch
		n       int64 // anti batch size
	}{
		{3, 0, 7, 4},
		{4, 2, 2, 5}, // drives the count negative
		{5, 1, 0, 3}, // anti-first on a fresh balancer
		{1, 0, 9, 9},
	} {
		batched := NewInit(2, c.q, c.init)
		singles := NewInit(2, c.q, c.init)
		for i := int64(0); i < c.preload; i++ {
			batched.Step()
			singles.Step()
		}
		want := make([]int64, c.q)
		for i := int64(0); i < c.n; i++ {
			want[singles.StepAnti()]++
		}
		k := batched.StepAntiN(c.n)
		if k != c.preload-c.n {
			t.Fatalf("q=%d: StepAntiN returned %d, want %d", c.q, k, c.preload-c.n)
		}
		got := DistributeInto(batched.Init()+k, c.n, make([]int64, c.q))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q=%d init=%d pre=%d n=%d: batch exits %v, singles %v",
					c.q, c.init, c.preload, c.n, got, want)
			}
		}
		if batched.Count() != singles.Count() {
			t.Fatalf("counts diverged: %d vs %d", batched.Count(), singles.Count())
		}
	}
}

func TestStepAntiNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StepAntiN(0) did not panic")
		}
	}()
	New(2, 2).StepAntiN(0)
}

// wire is held to its definition, (init+k) mod q with the result in
// [0,q), for every width the mask path and the division path serve, every
// initial state and tokens and antitokens four rounds deep.
func TestWireMatchesMod(t *testing.T) {
	for q := 1; q <= 64; q++ {
		for init := 0; init < q; init++ {
			b := NewInit(1, q, int64(init))
			for k := -4 * int64(q); k <= 4*int64(q); k++ {
				want := (int64(init) + k) % int64(q)
				if want < 0 {
					want += int64(q)
				}
				if got := b.wire(k); got != int(want) {
					t.Fatalf("q=%d init=%d k=%d: wire %d, want %d", q, init, k, got, want)
				}
			}
		}
	}
}

func TestInitialState(t *testing.T) {
	b := NewInit(2, 4, 6) // 6 mod 4 = 2
	if b.Init() != 2 {
		t.Fatalf("Init = %d, want 2", b.Init())
	}
	if got := b.Step(); got != 2 {
		t.Fatalf("first step = %d, want 2", got)
	}
	b2 := NewInit(2, 4, -1) // normalized to 3
	if b2.Init() != 3 {
		t.Fatalf("negative init normalized to %d, want 3", b2.Init())
	}
}

func TestReset(t *testing.T) {
	b := NewInit(2, 4, 1)
	b.Step()
	b.Step()
	b.Reset()
	if got := b.Step(); got != 1 {
		t.Fatalf("after reset first step = %d, want 1", got)
	}
}

func TestInvalidWidthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,2) did not panic")
		}
	}()
	New(0, 2)
}

func TestOutputCountsStep(t *testing.T) {
	b := New(2, 4)
	for i := 0; i < 11; i++ {
		b.Step()
	}
	got := b.OutputCounts()
	want := []int64{3, 3, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OutputCounts = %v, want %v", got, want)
		}
	}
}

func TestDistribute(t *testing.T) {
	cases := []struct {
		s0, s int64
		q     int
		want  []int64
	}{
		{0, 0, 3, []int64{0, 0, 0}},
		{0, 7, 3, []int64{3, 2, 2}},
		{1, 7, 3, []int64{2, 3, 2}},
		{2, 2, 3, []int64{1, 0, 1}},
		{0, 1, 1, []int64{1}},
	}
	for _, c := range cases {
		got := Distribute(c.s0, c.s, c.q)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("Distribute(%d,%d,%d) = %v, want %v", c.s0, c.s, c.q, got, c.want)
			}
		}
	}
}

// Property: Distribute sums to s and matches brute-force simulation.
func TestQuickDistribute(t *testing.T) {
	f := func(s0raw, sraw int64, qraw uint8) bool {
		q := int(qraw%8) + 1
		s0 := ((s0raw % int64(q)) + int64(q)) % int64(q)
		s := sraw % 200
		if s < 0 {
			s = -s
		}
		got := Distribute(s0, s, q)
		brute := make([]int64, q)
		for j := int64(0); j < s; j++ {
			brute[(s0+j)%int64(q)]++
		}
		var sum int64
		for i := range brute {
			if got[i] != brute[i] {
				return false
			}
			sum += got[i]
		}
		return sum == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Concurrent balancer: the output distribution over q wires must be exactly
// the step distribution of the total, whatever the interleaving.
func TestConcurrentStepDistribution(t *testing.T) {
	b := New(2, 5)
	const goroutines, per = 8, 2000
	counts := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		counts[g] = make([]int64, 5)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				counts[g][b.Step()]++
			}
		}(g)
	}
	wg.Wait()
	total := make([]int64, 5)
	for _, c := range counts {
		for i, v := range c {
			total[i] += v
		}
	}
	want := Distribute(0, goroutines*per, 5)
	for i := range want {
		if total[i] != want[i] {
			t.Fatalf("concurrent distribution %v, want %v", total, want)
		}
	}
}

// Mixed tokens and antitokens: net distribution equals Distribute of the
// net count when tokens never outnumber... (net >= 0 at the end). We only
// check the aggregate count here; the step-property-of-differences test
// lives at network level.
func TestConcurrentTokensAndAntitokens(t *testing.T) {
	b := New(2, 3)
	var wg sync.WaitGroup
	const per = 3000
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Step()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.StepAnti()
			}
		}()
	}
	wg.Wait()
	if got := b.Count(); got != 2*per {
		t.Fatalf("net count = %d, want %d", got, 2*per)
	}
}

func TestToggle(t *testing.T) {
	var tg Toggle
	for i := 0; i < 10; i++ {
		if got := tg.Step(); got != i%2 {
			t.Fatalf("toggle step %d = %d", i, got)
		}
	}
	if got := tg.StepAnti(); got != 1 {
		t.Fatalf("toggle anti = %d, want 1", got)
	}
	tg.Reset()
	if tg.Count() != 0 || tg.Step() != 0 {
		t.Fatal("toggle reset broken")
	}
}

func TestExchangerPairsSwap(t *testing.T) {
	var ex Exchanger
	var wg sync.WaitGroup
	results := make([]struct {
		partner uint32
		out     Outcome
	}, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				p, o := ex.Exchange(uint32(100+i), 100000)
				if o != Timeout {
					results[i].partner, results[i].out = p, o
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if results[0].out == results[1].out {
		t.Fatalf("both got outcome %v", results[0].out)
	}
	if results[0].partner != 101 || results[1].partner != 100 {
		t.Fatalf("partners = %d, %d", results[0].partner, results[1].partner)
	}
}

func TestExchangerTimeout(t *testing.T) {
	var ex Exchanger
	if _, o := ex.Exchange(1, 10); o != Timeout {
		t.Fatalf("lone exchange outcome = %v, want Timeout", o)
	}
	// Slot must be empty again: a second lone attempt also times out
	// rather than pairing with a ghost.
	if p, o := ex.Exchange(2, 10); o != Timeout {
		t.Fatalf("second lone exchange = (%d,%v), want Timeout", p, o)
	}
}

// Stress: many goroutines exchanging; every successful pair must agree.
func TestExchangerStress(t *testing.T) {
	var ex Exchanger
	const n = 8
	var wg sync.WaitGroup
	firsts := make([]map[uint32]int, n)
	seconds := make([]map[uint32]int, n)
	for g := 0; g < n; g++ {
		firsts[g] = map[uint32]int{}
		seconds[g] = map[uint32]int{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				p, o := ex.Exchange(uint32(g), 200)
				switch o {
				case First:
					firsts[g][p]++
				case Second:
					seconds[g][p]++
				}
			}
		}(g)
	}
	wg.Wait()
	// Conservation: total First outcomes == total Second outcomes, since
	// every pairing has exactly one of each.
	var f, s int
	for g := 0; g < n; g++ {
		for _, c := range firsts[g] {
			f += c
		}
		for _, c := range seconds[g] {
			s += c
		}
	}
	if f != s {
		t.Fatalf("pair conservation broken: %d firsts vs %d seconds", f, s)
	}
}
