package udpnet

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// scriptConn is a net.Conn with no socket behind it: every request
// datagram the session writes is recorded and handed to the test's
// script, which decides what (if anything) comes back and in which
// order. Read blocks until a scripted datagram is queued, the conn is
// closed, or the read deadline the engine armed passes — the only
// waiting these tests do.
type scriptConn struct {
	net.Conn // nil: the engine uses only the methods defined below

	mu        sync.Mutex
	inbox     [][]byte
	wake      chan struct{} // cap 1: inbox or closed changed
	closed    bool
	deadline  time.Time
	deadlines []time.Time // every read deadline armed, in order
	writes    []scriptWrite
	parked    chan struct{} // cap 1: a Read found nothing to return yet

	// onWrite runs after each write is recorded, without the lock; n is
	// the 1-based write count.
	onWrite func(c *scriptConn, n int, pkt []byte)
}

type scriptWrite struct {
	at  time.Time
	pkt []byte
}

func newScriptConn(onWrite func(c *scriptConn, n int, pkt []byte)) *scriptConn {
	return &scriptConn{wake: make(chan struct{}, 1), parked: make(chan struct{}, 1), onWrite: onWrite}
}

func (c *scriptConn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// deliver queues datagrams for the session to read.
func (c *scriptConn) deliver(pkts ...[]byte) {
	c.mu.Lock()
	c.inbox = append(c.inbox, pkts...)
	c.mu.Unlock()
	c.signal()
}

func (c *scriptConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	pkt := append([]byte(nil), b...)
	c.writes = append(c.writes, scriptWrite{at: time.Now(), pkt: pkt})
	n := len(c.writes)
	c.mu.Unlock()
	if c.onWrite != nil {
		c.onWrite(c, n, pkt)
	}
	return len(b), nil
}

func (c *scriptConn) Read(b []byte) (int, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return 0, net.ErrClosed
		}
		if len(c.inbox) > 0 {
			pkt := c.inbox[0]
			c.inbox = c.inbox[1:]
			c.mu.Unlock()
			return copy(b, pkt), nil
		}
		wait := time.Until(c.deadline)
		c.mu.Unlock()
		if wait <= 0 {
			return 0, os.ErrDeadlineExceeded
		}
		select {
		case c.parked <- struct{}{}:
		default:
		}
		timer := time.NewTimer(wait)
		select {
		case <-c.wake:
			timer.Stop()
		case <-timer.C:
			return 0, os.ErrDeadlineExceeded
		}
	}
}

func (c *scriptConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.deadlines = append(c.deadlines, t)
	c.mu.Unlock()
	return nil
}

func (c *scriptConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.signal()
	return nil
}

func (c *scriptConn) log() ([]scriptWrite, []time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]scriptWrite(nil), c.writes...), append([]time.Time(nil), c.deadlines...)
}

// answer builds the well-formed reply to a recorded request: the id
// echoed, then one value per non-HELLO frame — the frame's own id, so a
// test can tell whose reply it was handed.
func answer(t *testing.T, pkt []byte) []byte {
	t.Helper()
	id, frames, err := wire.DecodePacket(pkt, nil)
	if err != nil || len(frames) == 0 || frames[0].Op != wire.OpHello {
		t.Errorf("session wrote a malformed request: %v %v", frames, err)
		return nil
	}
	out := wire.AppendPacket(nil, id, nil)
	for _, f := range frames[1:] {
		out = binary.BigEndian.AppendUint64(out, uint64(f.ID))
	}
	return out
}

// scripted opens a one-shard session whose socket is the script. The
// cluster still dials (the address is never written to) and the dial
// wrapper swaps the script in, as the fault injectors do.
func scripted(t *testing.T, depth int, policy wire.RetryPolicy, timer wire.Backoff, sc *scriptConn) *Session {
	t.Helper()
	topo, err := core.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(topo, []string{"127.0.0.1:9"})
	cluster.SetPipeline(depth)
	cluster.SetRetransmitPolicy(policy, timer)
	cluster.SetDialWrapper(func(dialed net.Conn) net.Conn {
		dialed.Close()
		return sc
	})
	sess, err := cluster.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess
}

var (
	patient = wire.RetryPolicy{Attempts: 3, Budget: time.Minute}
	slow    = wire.Backoff{Base: time.Minute, Max: time.Minute} // never fires inside a test
	quick   = wire.Backoff{Base: 8 * time.Millisecond, Max: 8 * time.Millisecond}
)

func read(id int32) []wire.Frame { return []wire.Frame{{Op: wire.OpRead, ID: id}} }

// A full window answered in reverse: every reply is matched to its
// request by id, the values come back in submission order, the window
// never holds more than depth packets, and a packet submitted into a
// full window waits for a slot instead of overrunning it.
func TestWindowRepliesInReverseOrder(t *testing.T) {
	const depth = 4
	var sess *Session
	var held [][]byte
	maxOut := int64(0)
	sc := newScriptConn(func(c *scriptConn, n int, pkt []byte) {
		if out := sess.Outstanding(); out > maxOut {
			maxOut = out
		}
		held = append([][]byte{answer(t, pkt)}, held...)
		if n%depth == 0 { // the window is full: release it, newest first
			c.deliver(held...)
			held = nil
		}
	})
	sess = scripted(t, depth, patient, slow, sc)
	k := &sess.socks[0]
	for id := int32(0); id < 2*depth; id++ {
		sess.submit(k, read(100+id))
	}
	sess.flush(k)
	vals, err := sess.await(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != int64(100+i) {
			t.Fatalf("values out of submission order: %v", vals)
		}
	}
	if len(vals) != 2*depth || maxOut != depth {
		t.Fatalf("%d values, window peaked at %d outstanding; want %d and %d", len(vals), maxOut, 2*depth, depth)
	}
	if sess.Outstanding() != 0 || sess.Packets() != 2*depth || sess.Retransmits() != 0 {
		t.Fatalf("after await: outstanding %d packets %d retransmits %d", sess.Outstanding(), sess.Packets(), sess.Retransmits())
	}
}

// Datagrams that answer nothing outstanding are dropped and cost no
// retransmit: a duplicate reply (met by the NEXT exchange), a foreign
// request id, a reply of the wrong length, and a runt.
func TestWindowDropsStrayDatagrams(t *testing.T) {
	sc := newScriptConn(nil)
	sc.onWrite = func(c *scriptConn, n int, pkt []byte) {
		good := answer(t, pkt)
		switch n {
		case 1:
			c.deliver(good, good) // the second copy is still queued when exchange 2 starts
		case 2:
			foreign := binary.BigEndian.AppendUint64(nil, binary.BigEndian.Uint64(pkt)+1000)
			foreign = binary.BigEndian.AppendUint64(foreign, 666)
			c.deliver(foreign, good[:len(good)-3], good[:5], good)
		}
	}
	sess := scripted(t, 1, patient, slow, sc)
	for i, cell := range []int{0, 1} {
		if v, err := sess.ReadCell(cell); err != nil || v != int64(cell) {
			t.Fatalf("exchange %d = (%d, %v), want (%d, nil)", i+1, v, err, cell)
		}
	}
	if sess.Packets() != 2 || sess.Retransmits() != 0 {
		t.Fatalf("packets %d retransmits %d, want 2 and 0", sess.Packets(), sess.Retransmits())
	}
}

// An unanswered packet is sent again when its resend time comes, not
// before: the engine listens until exactly the deadline it armed — at
// most the attempt's delay after the send — and the copy is
// byte-identical, so the shard can deduplicate it.
func TestWindowResendsAtResendTime(t *testing.T) {
	sc := newScriptConn(nil)
	sc.onWrite = func(c *scriptConn, n int, pkt []byte) {
		if n == 2 {
			c.deliver(answer(t, pkt))
		}
	}
	sess := scripted(t, 1, patient, quick, sc)
	if v, err := sess.ReadCell(1); err != nil || v != 1 {
		t.Fatalf("ReadCell = (%d, %v)", v, err)
	}
	writes, deadlines := sc.log()
	if len(writes) != 2 || sess.Packets() != 2 || sess.Retransmits() != 1 || sess.RPCs() != 2 {
		t.Fatalf("%d writes, packets %d retransmits %d rpcs %d; want 2, 2, 1, 2",
			len(writes), sess.Packets(), sess.Retransmits(), sess.RPCs())
	}
	if string(writes[0].pkt) != string(writes[1].pkt) {
		t.Fatal("the retransmitted datagram differs from the original")
	}
	if armed := deadlines[0].Sub(writes[0].at); armed > quick.Base {
		t.Fatalf("first listening window ends %v after the send, want at most %v", armed, quick.Base)
	}
	if writes[1].at.Before(deadlines[0]) {
		t.Fatalf("resent %v before the armed resend time", deadlines[0].Sub(writes[1].at))
	}
}

// A packet whose resend time passed while the session was elsewhere
// (awaiting another shard, or descheduled) is not resent blind: the
// socket is read first, and a reply that was already waiting completes
// it at the cost of no retransmit. Only a socket found empty is resent
// on.
func TestWindowLooksBeforeLateResend(t *testing.T) {
	sc := newScriptConn(nil)
	sc.onWrite = func(c *scriptConn, n int, pkt []byte) {
		if n != 2 { // round 2's first send goes unanswered
			c.deliver(answer(t, pkt))
		}
	}
	sess := scripted(t, 1, patient, slow, sc)
	k := &sess.socks[0]
	for _, want := range []struct{ packets, retransmits int64 }{
		{1, 0}, // the reply was waiting: read, nothing resent
		{3, 1}, // the socket was empty: resent once, then answered
	} {
		sess.submit(k, read(7))
		sess.flush(k)
		k.q[0].resendAt = time.Now().Add(-time.Second) // long overdue by the time await looks
		vals, err := sess.await(k, nil)
		if err != nil || len(vals) != 1 || vals[0] != 7 {
			t.Fatalf("await = (%v, %v)", vals, err)
		}
		if sess.Packets() != want.packets || sess.Retransmits() != want.retransmits {
			t.Fatalf("%d packets and %d retransmits so far, want %d and %d",
				sess.Packets(), sess.Retransmits(), want.packets, want.retransmits)
		}
	}
}

// A shard that never answers costs exactly Attempts sends, or as many
// as fit in the Budget, and then the exchange fails — and the window is
// empty again, so the session is reusable.
func TestWindowBudgetExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy wire.RetryPolicy
		sends  int // exact when > 0
	}{
		{"attempts", wire.RetryPolicy{Attempts: 3, Budget: time.Minute}, 3},
		{"budget", wire.RetryPolicy{Attempts: 1000, Budget: 30 * time.Millisecond}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := newScriptConn(nil)
			sess := scripted(t, 2, tc.policy, quick, sc)
			begin := time.Now()
			_, err := sess.ReadCell(0)
			if err == nil {
				t.Fatal("an exchange nobody answered succeeded")
			}
			writes, _ := sc.log()
			if tc.sends > 0 && len(writes) != tc.sends {
				t.Fatalf("%d sends, want exactly %d: %v", len(writes), tc.sends, err)
			}
			if tc.sends == 0 {
				// 30ms of listening windows of 4 to 8ms each.
				if el := time.Since(begin); el < tc.policy.Budget || len(writes) > 8 {
					t.Fatalf("gave up after %v and %d sends; budget %v", el, len(writes), tc.policy.Budget)
				}
			}
			if int(sess.Packets()) != len(writes) || int(sess.Retransmits()) != len(writes)-1 || sess.Outstanding() != 0 {
				t.Fatalf("packets %d retransmits %d outstanding %d after %d sends",
					sess.Packets(), sess.Retransmits(), sess.Outstanding(), len(writes))
			}
			sc.onWrite = func(c *scriptConn, n int, pkt []byte) { c.deliver(answer(t, pkt)) }
			if v, err := sess.ReadCell(1); err != nil || v != 1 {
				t.Fatalf("exchange after a failed one = (%d, %v)", v, err)
			}
		})
	}
}

// Close from another goroutine while the session awaits: every packet
// in the window completes with the socket's close error, promptly.
func TestWindowCloseDuringAwait(t *testing.T) {
	sc := newScriptConn(nil)
	sess := scripted(t, 4, patient, slow, sc)
	k := &sess.socks[0]
	for id := int32(0); id < 3; id++ {
		sess.submit(k, read(id))
	}
	sess.flush(k)
	go func() {
		<-sc.parked // the session is inside await's read
		sess.Close()
	}()
	if _, err := sess.await(k, nil); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("await across Close = %v, want net.ErrClosed", err)
	}
	if sess.Outstanding() != 0 || len(k.q) != 0 {
		t.Fatalf("window not emptied by Close: outstanding %d, queued %d", sess.Outstanding(), len(k.q))
	}
}

// The session side of the zero-allocation claim, over real loopback
// sockets so the sendmmsg path is the one measured: after one warm-up
// op (handles pooled, scratch sized) no operation allocates at any
// window depth — in particular the closures the walks hand to fan stay
// on the stack. AllocsPerRun counts the whole process, shards included,
// and the claim holds under -race too: the shards' packet buffers sit on
// a free list they own, which the race detector cannot empty.
func TestUDPSessionZeroAlloc(t *testing.T) {
	topo, err := core.New(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 4} {
		cluster := startClusterCfg(t, topo, 3, ShardConfig{Workers: 2})
		cluster.SetPipeline(depth)
		sess, err := cluster.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		var vals []int64
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"Inc", func() error { _, err := sess.Inc(1); return err }},
			{"Dec", func() error { _, err := sess.Dec(1); return err }},
			{"IncBatch(64)", func() (err error) { vals, err = sess.IncBatch(2, 64, vals[:0]); return }},
			{"Read", func() error { _, err := sess.Read(); return err }},
		} {
			if err := op.run(); err != nil { // warm-up
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() {
				if err := op.run(); err != nil {
					t.Error(err)
				}
			}); n != 0 {
				t.Errorf("depth %d: %s allocates %.0f times per op, want 0", depth, op.name, n)
			}
		}
	}
}
