package xport

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/wire"
)

// incResult is what one Inc caller got back.
type incResult struct {
	v   int64
	err error
}

// incWorker runs one ctr.Inc(0) per token on req and reports it on res,
// so a test can place callers on a wire without starting goroutines
// inside a measured region.
func incWorker(ctr *Counter, req <-chan struct{}, res chan<- incResult) {
	for range req {
		v, err := ctr.Inc(0)
		res <- incResult{v, err}
	}
}

// awaitPooled spins until n callers are parked in wire 0's filling
// window, and returns that window.
func awaitPooled(ctr *Counter, n int64) *cwindow {
	cb := &ctr.combs[0]
	for ; ; runtime.Gosched() {
		cb.mu.Lock()
		w := cb.next
		if w != nil && w.k == n {
			cb.mu.Unlock()
			return w
		}
		cb.mu.Unlock()
	}
}

// coalescedRound drives one owner flight with one window of `joiners`
// behind it on wire 0, and returns the window and every caller's result
// appended to out. The link's gate holds the owner inside its session
// until the window has filled, so the round is the same every time.
func coalescedRound(l *fakeLink, ctr *Counter, req chan<- struct{}, res <-chan incResult, joiners int, out []incResult) (*cwindow, []incResult) {
	req <- struct{}{}
	<-l.entered
	for i := 0; i < joiners; i++ {
		req <- struct{}{}
	}
	w := awaitPooled(ctr, int64(joiners))
	l.gate <- struct{}{}
	for i := 0; i <= joiners; i++ {
		out = append(out, <-res)
	}
	return w, out
}

// The steady state of every Counter operation costs no allocation: the
// flight's tape and Dec's value buffer come off the free list, and a
// coalescing window is handed back by its last reader and reused.
func TestCounterFlightZeroAlloc(t *testing.T) {
	l := &fakeLink{in: 2, out: 4}
	ctr := NewCounter(l, 1)
	defer ctr.Close()
	var vals []int64
	ops := []struct {
		name string
		run  func() error
	}{
		{"Inc", func() error { _, err := ctr.Inc(1); return err }},
		{"Dec", func() error { _, err := ctr.Dec(1); return err }},
		{"IncBatch(64)", func() (err error) { vals, err = ctr.IncBatch(1, 64, vals[:0]); return }},
		{"Read", func() error { _, err := ctr.Read(); return err }},
	}
	for _, op := range ops {
		if err := op.run(); err != nil { // warm-up: session dialed, scratch made and sized
			t.Fatal(err)
		}
		// The fake records every seq it draws; keep that out of the count.
		l.sessions[0].seqs = slices.Grow(l.sessions[0].seqs[:0], 128*64)
		if n := testing.AllocsPerRun(100, func() {
			if err := op.run(); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("%s allocates %.0f times per op, want 0", op.name, n)
		}
	}

	// Two callers on one wire: every round is an owner flight plus a
	// window of one, on the same recycled window.
	l.gate, l.entered = make(chan struct{}), make(chan struct{}, 1)
	req, res := make(chan struct{}), make(chan incResult, 2)
	defer close(req)
	go incWorker(ctr, req, res)
	go incWorker(ctr, req, res)
	out := make([]incResult, 0, 2)
	round := func() *cwindow {
		w, results := coalescedRound(l, ctr, req, res, 1, out)
		for _, r := range results {
			if r.err != nil {
				t.Error(r.err)
			}
		}
		return w
	}
	first := round() // warm-up: the window is made
	l.sessions[0].seqs = slices.Grow(l.sessions[0].seqs[:0], 128*2)
	if n := testing.AllocsPerRun(100, func() {
		if w := round(); w != first {
			t.Error("a round ran on a new window, not the recycled one")
		}
	}); n != 0 {
		t.Errorf("a coalesced round allocates %.0f times, want 0", n)
	}
	if got, want := ctr.windows.Load(), int64(102); got != want {
		t.Errorf("%d windows flew, want %d — the rounds did not coalesce", got, want)
	}
}

// A recycled tape starts empty: the flight after one that retried draws
// only fresh, larger sequence numbers, and when it is failed in turn its
// retry replays its own first attempt — nothing of the previous flight.
func TestRecycledTapeDrawsFreshAndReplaysOwn(t *testing.T) {
	l := &fakeLink{in: 2, out: 4, failOps: 1}
	ctr := NewCounter(l, 1)
	defer ctr.Close()
	ctr.SetRetryBackoff(wire.Backoff{Base: 1, Max: 1})

	if _, err := ctr.IncBatch(0, 6, nil); err != nil {
		t.Fatal(err)
	}
	if len(ctr.free) != 1 {
		t.Fatalf("free list holds %d scratch after one flight, want 1", len(ctr.free))
	}
	sc := ctr.free[0]
	prior := l.sessions[1].seqs // the 3 replayed + 3 fresh of flight one
	hi := slices.Max(prior)

	l.mu.Lock()
	l.failOps = 1
	mark := len(prior)
	l.mu.Unlock()
	vals, err := ctr.IncBatch(0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{6, 7, 8, 9}; !slices.Equal(vals, want) {
		t.Fatalf("second flight claimed %v, want %v", vals, want)
	}
	if len(ctr.free) != 1 || ctr.free[0] != sc {
		t.Fatal("second flight did not fly on, and return, the recycled scratch")
	}
	failed, retry := l.sessions[1].seqs[mark:], l.sessions[2].seqs
	if len(failed) != 2 || len(retry) != 4 || !slices.Equal(retry[:2], failed) {
		t.Fatalf("retry drew %v after its first attempt drew %v — not a replay of its own", retry, failed)
	}
	if !slices.IsSorted(retry) || retry[0] <= hi {
		t.Fatalf("recycled tape drew %v, want fresh numbers above the previous flight's %d", retry, hi)
	}
	// Dec lands in the scratch's own buffer and still reports the value.
	if v, err := ctr.Dec(0); err != nil || v != 9 {
		t.Fatalf("Dec() = %d, %v; want 9", v, err)
	}
}

// More flights in the air than the free list holds: each flies on its
// own scratch (the race detector sees any sharing), and at landing the
// list keeps pool-width of them and drops the rest.
func TestScratchFreeListBounded(t *testing.T) {
	const wires, width = 8, 2
	l := &fakeLink{in: wires, out: wires, gate: make(chan struct{}), entered: make(chan struct{}, wires)}
	ctr := NewCounter(l, width)
	defer ctr.Close()
	res := make(chan incResult, wires)
	for round := 0; round < 3; round++ {
		for pid := 0; pid < wires; pid++ {
			go func() {
				v, err := ctr.Inc(pid)
				res <- incResult{v, err}
			}()
		}
		for i := 0; i < wires; i++ {
			<-l.entered
		}
		if got := ctr.inflightN.Load(); got != wires {
			t.Fatalf("%d flights in the air, want %d", got, wires)
		}
		for i := 0; i < wires; i++ {
			l.gate <- struct{}{}
		}
		var got []int64
		for i := 0; i < wires; i++ {
			r := <-res
			if r.err != nil {
				t.Fatal(r.err)
			}
			got = append(got, r.v)
		}
		slices.Sort(got)
		for i, v := range got {
			if want := int64(round*wires + i); v != want {
				t.Fatalf("round %d claimed %v, want dense from %d", round, got, round*wires)
			}
		}
		ctr.mu.Lock()
		free := slices.Clone(ctr.free)
		ctr.mu.Unlock()
		if len(free) != width || free[0] == free[1] {
			t.Fatalf("free list %v after %d concurrent flights, want %d distinct scratch", free, wires, width)
		}
	}
}

// A window whose flight fails hands every parked caller the flight's
// error, and is handed back and reused like one that landed.
func TestFailedWindowFailsCallersAndRecycles(t *testing.T) {
	l := &fakeLink{in: 1, out: 2, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	ctr := NewCounter(l, 1)
	defer ctr.Close()
	ctr.SetRetryPolicy(1, 0) // one attempt: a scripted failure is final
	const joiners = 3
	req, res := make(chan struct{}), make(chan incResult, 1+joiners)
	defer close(req)
	for i := 0; i <= joiners; i++ {
		go incWorker(ctr, req, res)
	}

	l.failOps = 2 // the owner's flight, then the window's
	failed, out := coalescedRound(l, ctr, req, res, joiners, nil)
	for _, r := range out {
		if !errors.Is(r.err, errScripted) {
			t.Fatalf("caller of a failed round got %d, %v; want the link error", r.v, r.err)
		}
	}
	reused, out := coalescedRound(l, ctr, req, res, joiners, out[:0])
	if reused != failed {
		t.Fatal("the failed window was not recycled")
	}
	var got []int64
	for _, r := range out {
		if r.err != nil {
			t.Fatalf("round after the failed one: %v", r.err)
		}
		got = append(got, r.v)
	}
	if slices.Sort(got); !slices.Equal(got, []int64{0, 1, 2, 3}) {
		t.Fatalf("round after the failed one claimed %v, want 0..3 — the failed round applied nothing", got)
	}
}
