package wire

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The exactly-once window, socket-free, at Window=4 (replies kept for 4
// sequences of history per residue class, applied bits for 4 blocks of
// 64 = 256 sequences). Each step offers one sequence number and states
// what must happen: exec (run once, reply recorded), replay (answered
// from the record, exec NOT run) or refuse (dropped, exec NOT run). A
// sequence is never executed twice, whatever order the frames arrive in.
func TestDedupWindow(t *testing.T) {
	const (
		exec = iota
		replay
		refuse
	)
	type step struct {
		seq  uint64
		want int
	}
	for _, tc := range []struct {
		name    string
		steps   []step
		records int64
	}{
		{"in-order", []step{
			{1, exec}, {2, exec}, {3, exec}, {4, exec},
			{1, replay}, {2, replay}, {3, replay}, {4, replay},
			{5, exec},   // takes over seq 1's slot
			{1, refuse}, // applied, reply gone: a duplicate after eviction is not re-run
			{5, replay}, {2, replay}, {3, replay}, {4, replay},
		}, 4},
		{"reversed", []step{
			{8, exec}, {7, exec}, {6, exec}, {5, exec},
			// Late by a whole window but never applied: run, once. Their
			// slots belong to 8..5, so their replies are not kept.
			{4, exec}, {3, exec}, {2, exec}, {1, exec},
			{8, replay}, {7, replay}, {6, replay}, {5, replay},
			{4, refuse}, {3, refuse}, {2, refuse}, {1, refuse},
		}, 4},
		{"interleaved", []step{
			{1, exec}, {5, exec}, {3, exec},
			{1, refuse}, // 5 took its slot
			{2, exec},
			{9, exec}, // takes the slot over from 5
			{5, refuse}, {9, replay}, {3, replay}, {2, replay},
			{1, refuse}, // still never again
		}, 3},
		{"late-first-send", []step{
			{200, exec},
			{21, exec}, // 179 sequences late, never applied: run, and slot 1 is free
			{21, replay},
			{20, exec},   // same, but 200 holds slot 0
			{20, refuse}, // so its duplicate cannot be answered
			{200, replay},
		}, 2},
		{"beyond-the-applied-bits", []step{
			{10, exec},
			{266, exec},  // block 4 takes block 0's position
			{10, refuse}, // applied once, now unknowable
			{11, refuse}, // never applied, equally unknowable: not run on a guess
			{266, replay},
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDedup(DedupConfig{Window: 4, Clients: 2})
			e := d.Bind(1)
			defer d.Release(e)
			execs := 0
			for n, st := range tc.steps {
				before := execs
				v, ok := e.Do(st.seq, func() (int64, bool) { execs++; return int64(st.seq * 10), true })
				ran := execs - before
				switch st.want {
				case exec:
					if !ok || ran != 1 || v != int64(st.seq*10) {
						t.Fatalf("step %d seq %d: (%d, %v) after %d runs, want one run", n, st.seq, v, ok, ran)
					}
				case replay:
					if !ok || ran != 0 || v != int64(st.seq*10) {
						t.Fatalf("step %d seq %d: (%d, %v) after %d runs, want the recorded reply and no run", n, st.seq, v, ok, ran)
					}
				case refuse:
					if ok || ran != 0 {
						t.Fatalf("step %d seq %d: (%d, %v) after %d runs, want refused and no run", n, st.seq, v, ok, ran)
					}
				}
			}
			if got := d.Stats().Records; got != tc.records {
				t.Fatalf("records gauge = %d, want %d occupied slots", got, tc.records)
			}
		})
	}
}

// Binding a client reserves nothing: the window's rings grow with the
// sequence numbers actually seen, and a recorded frame allocates only
// when it extends them.
func TestDedupWindowGrowsLazily(t *testing.T) {
	d := NewDedup(DedupConfig{})
	e := d.Bind(1)
	defer d.Release(e)
	if len(e.ring) != 0 || len(e.applied) != 0 {
		t.Fatalf("fresh entry holds %d slots and %d blocks", len(e.ring), len(e.applied))
	}
	run := func() (int64, bool) { return 7, true }
	for seq := uint64(1); seq <= 100; seq++ {
		e.Do(seq, run)
	}
	if len(e.ring) != 101 || len(e.applied) != 2 {
		t.Fatalf("after seqs 1..100: %d slots and %d blocks, want 101 and 2", len(e.ring), len(e.applied))
	}
	seq := uint64(100)
	if n := testing.AllocsPerRun(100, func() { e.Do(seq, run); seq-- }); n != 0 {
		t.Fatalf("replaying inside the grown window allocates %.0f per frame", n)
	}
}

// A client's rings stop growing once its sequences pass the first
// window: driving seqs past 4096 on to the end of the applied span twice
// over allocates nothing, so a long-lived client never reallocates on
// the serving path.
func TestDedupRingsStopGrowing(t *testing.T) {
	d := NewDedup(DedupConfig{})
	e := d.Bind(1)
	defer d.Release(e)
	run := func() (int64, bool) { return 7, true }
	drive := func(from, to uint64) {
		for seq := from; seq <= to; seq++ {
			if _, ok := e.Do(seq, run); !ok {
				t.Fatalf("seq %d refused", seq)
			}
		}
	}
	drive(1, DefaultDedupWindow)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drive(DefaultDedupWindow+1, 2*dedupAppliedSpan*DefaultDedupWindow)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("driving seqs %d..%d allocated %d times, want 0",
			DefaultDedupWindow+1, 2*dedupAppliedSpan*DefaultDedupWindow, n)
	}
}

// The client table evicts the least recently registered UNPINNED client
// at the cap; pinned clients survive arbitrary churn.
func TestDedupClientPinning(t *testing.T) {
	d := NewDedup(DedupConfig{Window: 8, Clients: 2, MinIdle: -1})
	pinned := d.Bind(100)
	if _, ok := pinned.Do(1, func() (int64, bool) { return 42, true }); !ok {
		t.Fatal("record failed")
	}
	// Churn far past the cap while client 100 stays pinned.
	for id := uint64(1); id <= 10; id++ {
		d.Release(d.Bind(id))
	}
	replayed := true
	if v, _ := pinned.Do(1, func() (int64, bool) { replayed = false; return -1, true }); v != 42 || !replayed {
		t.Fatalf("pinned window lost its record across churn (v=%d, replayed=%v)", v, replayed)
	}
	// Unpin and churn again: now the entry is evictable, and a rebind
	// starts a fresh window.
	d.Release(pinned)
	for id := uint64(11); id <= 20; id++ {
		d.Release(d.Bind(id))
	}
	fresh := d.Bind(100)
	defer d.Release(fresh)
	ran := false
	if _, ok := fresh.Do(1, func() (int64, bool) { ran = true; return 0, true }); !ok || !ran {
		t.Fatal("post-eviction rebind did not re-execute")
	}
}

// Zero-valued configs take the production defaults.
func TestDedupConfigDefaults(t *testing.T) {
	d := NewDedup(DedupConfig{})
	cfg := d.Config()
	if cfg.Window != DefaultDedupWindow || cfg.Clients != DefaultDedupClients ||
		cfg.MinIdle != DefaultDedupMinIdle {
		t.Fatalf("defaulted config = %+v", cfg)
	}
}

// The MinIdle guard: an UNPINNED entry that was bound recently — a
// datagram client whose pin lasts only one packet — survives cap churn
// from other clients, so its window is still there when the lost
// response's retransmit arrives and the duplicate is replayed, not
// re-executed.
func TestDedupMinIdleGuardsRecentClients(t *testing.T) {
	d := NewDedup(DedupConfig{Window: 8, Clients: 2, MinIdle: time.Hour})
	e := d.Bind(100)
	if _, ok := e.Do(1, func() (int64, bool) { return 42, true }); !ok {
		t.Fatal("record failed")
	}
	d.Release(e) // refs back to 0: only the idle guard protects it now
	for id := uint64(1); id <= 10; id++ {
		d.Release(d.Bind(id))
	}
	again := d.Bind(100)
	defer d.Release(again)
	replayed := true
	if v, _ := again.Do(1, func() (int64, bool) { replayed = false; return -1, true }); v != 42 || !replayed {
		t.Fatalf("recently-active window evicted by churn (v=%d, replayed=%v)", v, replayed)
	}
}

// The MaxIdle age bound: an abandoned (unpinned, long-idle) client is
// expired on the next registration even far below the Clients cap,
// while pinned clients and recently-bound clients survive the sweep.
func TestDedupMaxIdleExpiry(t *testing.T) {
	// MinIdle -1 disables the recency guard so a tiny MaxIdle is not
	// clamped up to the 10s default.
	d := NewDedup(DedupConfig{Window: 4, Clients: 1024, MinIdle: -1, MaxIdle: 30 * time.Millisecond})
	if cfg := d.Config(); cfg.MaxIdle != 30*time.Millisecond {
		t.Fatalf("MaxIdle = %v, want 30ms", cfg.MaxIdle)
	}

	abandoned := d.Bind(1)
	if _, ok := abandoned.Do(1, func() (int64, bool) { return 10, true }); !ok {
		t.Fatal("record failed")
	}
	d.Release(abandoned) // departs: nothing pins it, nothing rebinds it

	pinned := d.Bind(2)
	if _, ok := pinned.Do(1, func() (int64, bool) { return 20, true }); !ok {
		t.Fatal("record failed")
	}
	// Client 2 stays pinned across the idle period, like a live TCP
	// connection that just isn't sending.

	time.Sleep(40 * time.Millisecond) // both idle past MaxIdle

	// A registration triggers the sweep: the abandoned window goes, the
	// pinned one is stepped over.
	recent := d.Bind(3)
	if st := d.Stats(); st.Expirations != 1 || st.Clients != 2 {
		t.Fatalf("after sweep: expirations=%d clients=%d, want 1, 2", st.Expirations, st.Clients)
	}
	replayed := true
	if v, _ := pinned.Do(1, func() (int64, bool) { replayed = false; return -1, true }); v != 20 || !replayed {
		t.Fatalf("pinned window expired by age (v=%d, replayed=%v)", v, replayed)
	}

	// A recently-bound UNPINNED client survives the next sweep: the scan
	// stops at the first entry younger than the bound.
	d.Release(recent)
	d.Release(d.Bind(4))
	if st := d.Stats(); st.Expirations != 1 {
		t.Fatalf("recently-bound client expired: expirations=%d, want 1", st.Expirations)
	}

	// The abandoned id rebinding starts from a fresh window: its old
	// record is gone, so the exec runs again.
	back := d.Bind(1)
	defer d.Release(back)
	ran := false
	if _, ok := back.Do(1, func() (int64, bool) { ran = true; return 0, true }); !ok || !ran {
		t.Fatal("expired client's rebind did not re-execute")
	}
	d.Release(pinned)
}

// Backoff delays are jittered exponentials: within [d/2, d] for
// d = min(Base<<(n-1), Max), never zero, never past Max.
func TestBackoffDelayBounds(t *testing.T) {
	b := Backoff{Base: 8 * time.Millisecond, Max: 50 * time.Millisecond}
	full := []time.Duration{8, 16, 32, 50, 50, 50}
	for attempt := 1; attempt <= len(full); attempt++ {
		want := full[attempt-1] * time.Millisecond
		for trial := 0; trial < 100; trial++ {
			d := b.Delay(attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	// The zero value is usable: defaults applied, still bounded.
	var zero Backoff
	if d := zero.Delay(1); d <= 0 || d > 2*time.Millisecond {
		t.Fatalf("zero-value first delay %v outside (0, 2ms]", d)
	}
	if d := zero.Delay(30); d <= 0 || d > 250*time.Millisecond {
		t.Fatalf("zero-value capped delay %v outside (0, 250ms]", d)
	}
}

// The tape replays identical sequence numbers after a rewind and only
// draws fresh ones past the recorded end.
func TestSeqTapeRewind(t *testing.T) {
	var src atomic.Uint64
	tp := NewSeqTape(&src)
	first := []uint64{tp.Take(), tp.Take(), tp.Take()}
	tp.Rewind()
	for i, want := range first {
		if got := tp.Take(); got != want {
			t.Fatalf("replayed seq %d = %d, want %d", i, got, want)
		}
	}
	if next := tp.Take(); next != first[len(first)-1]+1 {
		t.Fatalf("post-replay seq = %d, want %d", next, first[len(first)-1]+1)
	}
	// A Reset tape replays nothing — it draws fresh numbers into the
	// capacity it kept — and a rewind of an empty tape is a no-op.
	tp.Reset()
	tp.Rewind()
	if n := testing.AllocsPerRun(10, func() {
		tp.Reset()
		for i := 0; i < 4; i++ {
			if got, want := tp.Take(), src.Load(); got != want {
				t.Fatalf("seq after Reset = %d, want the fresh %d", got, want)
			}
		}
	}); n != 0 {
		t.Fatalf("a Reset tape allocates %.0f times re-recording within its capacity", n)
	}
	// Capacity past seqTapeKeep is dropped at Reset, not pinned.
	for i := 0; i <= seqTapeKeep; i++ {
		tp.Take()
	}
	if tp.Reset(); cap(tp.used) != 0 {
		t.Fatalf("Reset kept an outgrown slice of capacity %d", cap(tp.used))
	}
}
