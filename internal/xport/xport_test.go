package xport

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/wire"
)

var errScripted = errors.New("xport test: scripted link failure")

// fakeLink is a scripted in-memory deployment: one sequential counter
// behind sessions that bill one rpc per mutating op, draw one sequence
// number per token from the flight's tape, and fail or park when the
// script says so. No sockets, no clocks.
type fakeLink struct {
	in, out int

	mu       sync.Mutex
	next     int64          // the deployment's counter
	failOps  int            // the next n ops send half their frames (seq drawn, rpc billed), then fail unapplied
	sessions []*fakeSession // every session dialed, in dial order

	gate    chan struct{} // non-nil: a single-token Inc parks here until it receives (or gate is closed)
	entered chan struct{} // receives once per Inc parked on gate
}

func (l *fakeLink) Transport() string                 { return "fake" }
func (l *fakeLink) Addrs() []string                   { return nil }
func (l *fakeLink) InWidth() int                      { return l.in }
func (l *fakeLink) OutWidth() int                     { return l.out }
func (l *fakeLink) Topology() string                  { return "T" }
func (l *fakeLink) RetryBudget() time.Duration        { return 0 }
func (l *fakeLink) NewCounterPool(width int) *Counter { return NewCounter(l, width) }

func (l *fakeLink) Dial(uint64) (Session, error) {
	s := &fakeSession{l: l}
	l.mu.Lock()
	l.sessions = append(l.sessions, s)
	l.mu.Unlock()
	return s, nil
}

type fakeSession struct {
	l      *fakeLink
	tape   *wire.SeqTape
	rpcs   atomic.Int64
	seqs   []uint64 // every sequence number drawn, in order
	one    [1]int64 // Inc's value lands here, as in a real session's scratch
	closed bool
}

// op moves the deployment's counter by k tokens (anti: back), appending
// the claimed or revoked values; revocations come most recent first.
func (s *fakeSession) op(k int64, anti bool, dst []int64) ([]int64, error) {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	draw := k
	if s.l.failOps > 0 {
		draw = (k + 1) / 2
	}
	for i := int64(0); i < draw; i++ {
		s.seqs = append(s.seqs, s.tape.Take())
	}
	s.rpcs.Add(1)
	if s.l.failOps > 0 {
		s.l.failOps--
		return dst, errScripted
	}
	for i := int64(0); i < k; i++ {
		if anti {
			s.l.next--
			dst = append(dst, s.l.next)
		} else {
			dst = append(dst, s.l.next)
			s.l.next++
		}
	}
	return dst, nil
}

func (s *fakeSession) Inc(int) (int64, error) {
	if s.l.gate != nil {
		s.l.entered <- struct{}{}
		<-s.l.gate
	}
	vals, err := s.op(1, false, s.one[:0])
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

func (s *fakeSession) Batch(_ int, k int64, anti bool, dst []int64) ([]int64, error) {
	return s.op(k, anti, dst)
}

func (s *fakeSession) Read() (int64, error) {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	return s.l.next, nil
}

func (s *fakeSession) RPCs() int64              { return s.rpcs.Load() }
func (s *fakeSession) SetTape(tp *wire.SeqTape) { s.tape = tp }
func (s *fakeSession) Healthy() bool            { return true }
func (s *fakeSession) Close()                   { s.closed = true }

// NewFleet is the one place a stripe list is validated (it replaces the
// per-transport NewShardedCluster checks and distnet's NewSharded).
func TestNewFleetRejectsBadArgs(t *testing.T) {
	a, b := &fakeLink{in: 2, out: 4}, &fakeLink{in: 2, out: 4}
	for name, stripes := range map[string][]*fakeLink{
		"no stripes":   nil,
		"nil stripe":   {a, nil},
		"nil first":    {nil, a},
		"input width":  {a, {in: 4, out: 4}},
		"output width": {a, {in: 2, out: 8}},
	} {
		if _, err := NewFleet(stripes, 1); err == nil {
			t.Errorf("%s: NewFleet succeeded", name)
		}
	}
	sc, err := NewFleet([]*fakeLink{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if got, want := sc.Name(), "fakeshard2:T"; got != want {
		t.Fatalf("fleet name %q, want %q", got, want)
	}
	if sc.Stripes() != 2 {
		t.Fatalf("Stripes() = %d, want 2", sc.Stripes())
	}
}

// Every operation reaches the stripe shard.StripeOf picks for its pid
// and nothing else, comes back in that stripe's residue class v·S + s,
// and the read side sums the stripes.
func TestFleetRoutesAndRemaps(t *testing.T) {
	const S = 3
	links := make([]*fakeLink, S)
	for i := range links {
		links[i] = &fakeLink{in: 2, out: 4}
	}
	sc, err := NewFleet(links, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	local := make([]int64, S) // each stripe's own counter, modelled
	ops := make([]int64, S)
	var net int64
	check := func(op string, pid int, got []int64, err error, want ...int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s(pid %d): %v", op, pid, err)
		}
		s := int64(shard.StripeOf(pid, S))
		for i := range want {
			want[i] = want[i]*S + s
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s(pid %d) on stripe %d = %v, want %v", op, pid, s, got, want)
		}
		ops[s]++
	}
	for pid := 0; pid < 16; pid++ {
		s := shard.StripeOf(pid, S)
		v, err := sc.Inc(pid)
		check("Inc", pid, []int64{v}, err, local[s])
		local[s]++
		batch, err := sc.IncBatch(pid, 3, []int64{-7})
		if batch[0] != -7 {
			t.Fatalf("IncBatch remapped the caller's prefix: %v", batch)
		}
		check("IncBatch", pid, batch[1:], err, local[s], local[s]+1, local[s]+2)
		local[s] += 3
		revoked, err := sc.DecBatch(pid, 2, nil)
		check("DecBatch", pid, revoked, err, local[s]-1, local[s]-2)
		local[s] -= 2
		v, err = sc.Dec(pid)
		check("Dec", pid, []int64{v}, err, local[s]-1)
		local[s]--
		net++
	}
	if got, err := sc.Read(); err != nil || got != net {
		t.Fatalf("Read() = %d, %v; want %d", got, err, net)
	}
	var total int64
	for s := 0; s < S; s++ {
		if got := sc.Counter(s).RPCs(); got != ops[s] {
			t.Fatalf("stripe %d billed %d rpcs, want the %d ops routed to it", s, got, ops[s])
		}
		if got, _ := sc.Counter(s).Read(); got != local[s] {
			t.Fatalf("stripe %d reads %d, want %d", s, got, local[s])
		}
		total += ops[s]
	}
	if got := sc.RPCs(); got != total {
		t.Fatalf("fleet RPCs() = %d, want the stripes' sum %d", got, total)
	}
}

// A session that fails mid-flight is evicted and closed, and the retry
// runs on a freshly dialed session that re-draws the identical sequence
// numbers from the flight's tape before drawing any new ones.
func TestRetryEvictsAndResendsIdenticalTape(t *testing.T) {
	l := &fakeLink{in: 2, out: 4, failOps: 1}
	ctr := NewCounter(l, 1)
	defer ctr.Close()
	ctr.SetRetryBackoff(wire.Backoff{Base: 1, Max: 1})

	vals, err := ctr.IncBatch(0, 6, nil)
	if err != nil {
		t.Fatalf("scripted failure surfaced instead of retrying: %v", err)
	}
	if want := []int64{0, 1, 2, 3, 4, 5}; !slices.Equal(vals, want) {
		t.Fatalf("retried batch claimed %v, want %v", vals, want)
	}
	if len(l.sessions) != 2 {
		t.Fatalf("%d sessions dialed, want the failed one and its replacement", len(l.sessions))
	}
	dead, fresh := l.sessions[0], l.sessions[1]
	if !dead.closed || fresh.closed {
		t.Fatalf("closed: failed session %v, replacement %v; want true, false", dead.closed, fresh.closed)
	}
	if ctr.PoolLive() != 1 || ctr.pool.evictions.Load() != 1 || ctr.retries.Load() != 1 {
		t.Fatalf("live %d evictions %d retries %d, want 1 1 1",
			ctr.PoolLive(), ctr.pool.evictions.Load(), ctr.retries.Load())
	}
	if len(dead.seqs) != 3 || len(fresh.seqs) != 6 || !slices.Equal(fresh.seqs[:3], dead.seqs) {
		t.Fatalf("retry drew %v after the failed attempt drew %v — not a replay", fresh.seqs, dead.seqs)
	}
	// Checkout vacates the idle slot it pops, so the backing array does
	// not keep a session reachable after the pool retires it.
	sess, err := ctr.pool.checkout()
	if err != nil || sess != Session(fresh) {
		t.Fatalf("checkout = %v, %v; want the replacement session", sess, err)
	}
	if idle := ctr.pool.idle[:1]; idle[0] != nil {
		t.Fatalf("popped idle slot still holds %v", idle[0])
	}
	ctr.pool.checkin(sess)
	// The evicted session's bill is folded in, not lost with it.
	if got := ctr.RPCs(); got != 2 {
		t.Fatalf("RPCs() = %d, want the failed attempt's 1 plus the retry's 1", got)
	}
	// Out of attempts, the link's own error reaches the caller.
	l.mu.Lock()
	l.failOps = DefaultRetryAttempts
	l.mu.Unlock()
	if _, err := ctr.IncBatch(0, 2, nil); !errors.Is(err, errScripted) {
		t.Fatalf("exhausted flight returned %v, want the link error", err)
	}
}

// Close while a flight is in the air: the flight itself lands, and the
// callers pooled in the window behind it get ErrClosed — never a value
// from a flight that was not going to run, never a raw link error.
func TestCloseDuringFlightFailsWindowCallers(t *testing.T) {
	l := &fakeLink{in: 1, out: 2, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	ctr := NewCounter(l, 1)

	owner := make(chan incResult, 1)
	go func() {
		v, err := ctr.Inc(0)
		owner <- incResult{v, err}
	}()
	<-l.entered // the owner's flight is parked inside the link

	const parked = 3
	window := make(chan incResult, parked)
	for i := 0; i < parked; i++ {
		go func() {
			v, err := ctr.Inc(0)
			window <- incResult{v, err}
		}()
	}
	awaitPooled(ctr, parked)

	closed := make(chan struct{})
	go func() {
		ctr.Close()
		close(closed)
	}()
	for ctr.state.Load() != stateDraining {
		runtime.Gosched()
	}
	close(l.gate)

	if r := <-owner; r.err != nil || r.v != 0 {
		t.Fatalf("in-flight Inc = %d, %v; want 0, nil — Close must wait for it", r.v, r.err)
	}
	for i := 0; i < parked; i++ {
		if r := <-window; !errors.Is(r.err, ErrClosed) {
			t.Fatalf("window caller got %d, %v; want ErrClosed", r.v, r.err)
		}
	}
	// The stranded window went back to the comb like any other: its last
	// reader returned it, emptied, before its Inc returned.
	cb := &ctr.combs[0]
	cb.mu.Lock()
	if len(cb.spare) != 1 || cb.spare[0].k != 0 || cb.spare[0].err != nil {
		t.Errorf("spare windows after the stranded one was read: %+v", cb.spare)
	}
	cb.mu.Unlock()
	<-closed
	if h := ctr.Health(); h.Live || h.Detail != "closed" {
		t.Fatalf("health after Close = %+v", h)
	}
	if got, _ := l.sessions[0].Read(); got != 1 {
		t.Fatalf("deployment holds %d tokens, want only the landed flight's 1", got)
	}
}
