package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// The window engine. Every exchange a session makes — an Inc hop, a
// ReadCell, one shard's share of a batch layer — goes submit → flush →
// await over a per-socket window of at most depth outstanding request
// datagrams (Cluster.SetPipeline; depth 1 is the same window with one
// slot). The session goroutine drives the window itself: await reads
// the socket until the packets it waits for complete, matching every
// reply it sees to its outstanding request by the 8-byte request id each
// packet opens with, and retransmitting on the earliest resend time
// among them. There is no reader goroutine, so nothing here is shared:
// no lock, no channel, no hand-off between a reply landing and the walk
// that wants it.
//
// Retransmit timers are the socket's read deadline, not timers: the
// deadline of every read is the earliest resend time of the
// outstanding packets, so a timer costs nothing per packet. An expiry
// costs one *net.OpError, about one allocation per retransmit: the
// standard library has no deadline read that avoids it. A socket is
// only serviced while its session awaits it; a reply to a packet on
// another socket waits in the kernel's receive buffer until the walk
// gets there, and pump reads what has arrived before it resends
// anything whose time came meanwhile.
//
// Exactly-once does not depend on the depth: the frames and their
// (client, seq) pairs are the same at every window size, and the
// shard's per-client dedup window absorbs duplicates and replays
// recorded replies in whatever order a window's packets land.

// lookFor is how long pump listens on a socket whose resend time passed
// while nobody was listening — long enough for the read to reach the
// kernel, short against any retransmit timer.
const lookFor = 100 * time.Microsecond

// handle is one request packet in a socket's window: the encoded
// datagram (kept for retransmission), the expected reply width, and
// the completion state await collects. Handles are pooled per session
// and their buffers reused, so the steady state allocates nothing per
// packet.
type handle struct {
	reqid    uint64
	buf      []byte  // encoded request packet, owned by the handle
	want     int     // reply values expected (frames sent minus HELLO)
	vals     []int64 // decoded reply values
	err      error
	done     bool      // reply matched, budget drained, or socket died
	attempt  int       // sends so far (1 = first transmission)
	resendAt time.Time // next retransmit (or expiry) time
	deadline time.Time // retransmit-budget bound; zero = none
}

// sock is one shard's connected socket and its window.
type sock struct {
	shard int
	conn  net.Conn
	seg   *segSender
	q     []*handle // submitted and not yet awaited, oldest first
	sent  int       // q[:sent] are on the wire; q[sent:] wait for the next flush
	live  int       // handles of q holding a window slot (not yet done)
	quiet time.Time // deadline of the last read that returned no datagram
	ids   []int32   // fan scratch: the ids behind this shard's frames, in frame order
	bufs  [][]byte  // flush scratch: the burst handed to seg
}

// submit encodes one request packet (HELLO + frames) into k's window
// and queues it for the next flush. A full window first drains a slot —
// after flushing, so the window can only be full of packets the shard
// is able to answer. It never fails: a dead socket surfaces at await.
func (s *Session) submit(k *sock, frames []wire.Frame) {
	if k.live == s.depth {
		s.flush(k)
		for k.live == s.depth {
			s.pump(k)
		}
	}
	var h *handle
	if n := len(s.free); n > 0 {
		h, s.free = s.free[n-1], s.free[:n-1]
	} else {
		h = new(handle)
	}
	s.reqid++
	*h = handle{reqid: s.reqid, buf: h.buf, want: len(frames), vals: h.vals[:0]}
	s.fpkt = append(s.fpkt[:0], wire.Frame{Op: wire.OpHello, Client: s.client})
	s.fpkt = append(s.fpkt, frames...)
	h.buf = wire.AppendPacket(h.buf[:0], h.reqid, s.fpkt)
	k.q = append(k.q, h)
	k.live++
	s.outstanding.Add(1)
}

// flush transmits every submitted-but-unsent packet of k as one burst
// (one sendmmsg on linux) and starts each packet's retransmit clock. It
// is the only place a request datagram is written for the first time.
func (s *Session) flush(k *sock) {
	if k.sent == len(k.q) {
		return
	}
	now := time.Now()
	k.bufs = k.bufs[:0]
	frames := 0
	for _, h := range k.q[k.sent:] {
		h.attempt = 1
		if s.policy.Budget > 0 {
			h.deadline = now.Add(s.policy.Budget)
		}
		s.arm(h, now)
		frames += h.want
		k.bufs = append(k.bufs, h.buf)
	}
	s.packets.Add(int64(len(k.bufs)))
	s.rpcs.Add(int64(frames))
	k.sent = len(k.q)
	// A send error is not the exchange's verdict: a transient one (a
	// surfaced ICMP) is recovered by the retransmit timer, and a closed
	// socket fails the read of the await that follows.
	_ = k.seg.send(k.bufs)
}

// arm stamps h's next resend time: the jittered listening window of its
// current attempt, cut short at the budget deadline so an exchange
// never outlives its budget by a timer period.
func (s *Session) arm(h *handle, now time.Time) {
	h.resendAt = now.Add(s.timer.Delay(h.attempt))
	if !h.deadline.IsZero() && h.resendAt.After(h.deadline) {
		h.resendAt = h.deadline
	}
}

// await completes every packet submitted on k since the last await,
// oldest first, and appends their reply values to dst in submission
// order. It reports the first packet's error but still collects the
// rest, so a socket's window is always empty between exchanges.
func (s *Session) await(k *sock, dst []int64) ([]int64, error) {
	var firstErr error
	for _, h := range k.q {
		for !h.done {
			s.pump(k)
		}
		dst = append(dst, h.vals...)
		if h.err != nil && firstErr == nil {
			firstErr = h.err
		}
		s.free = append(s.free, h)
	}
	k.q, k.sent = k.q[:0], 0
	return dst, firstErr
}

// pump advances k's window by one event, whichever comes first: a
// datagram (completing the outstanding packet it answers) or the
// earliest resend time (retransmitting or expiring what is due). A
// packet is only resent once the session has listened on its socket
// past its resend time and heard nothing. The caller guarantees k has a
// packet on the wire.
func (s *Session) pump(k *sock) {
	var next time.Time
	for _, h := range k.q[:k.sent] {
		if !h.done && (next.IsZero() || h.resendAt.Before(next)) {
			next = h.resendAt
		}
	}
	if now := time.Now(); !next.After(now) {
		if !k.quiet.Before(next) {
			s.sweep(k, now)
			return
		}
		// The resend time passed while the session was elsewhere — on
		// another shard's socket, or descheduled. The reply may well be
		// waiting in the socket buffer: look before resending.
		next = now.Add(lookFor)
	}
	k.conn.SetReadDeadline(next)
	n, err := k.conn.Read(s.rbuf)
	switch {
	case err == nil:
		s.complete(k, s.rbuf[:n])
	case errors.Is(err, net.ErrClosed):
		s.fail(k, err)
	default:
		// The deadline, or a transient error (a surfaced ICMP, consumed
		// by this read): nothing arrived, so whatever is due by now may
		// be resent on the next lap.
		k.quiet = next
	}
}

// complete matches one received datagram against k's outstanding
// packets and finishes the one it answers. A datagram that answers
// none of them — a reply to an already-completed request, the duplicate
// reply to a retransmitted one, a foreign or short packet — is dropped.
func (s *Session) complete(k *sock, b []byte) {
	if len(b) < wire.PacketOverhead {
		return
	}
	id := binary.BigEndian.Uint64(b[:wire.PacketOverhead])
	for _, h := range k.q[:k.sent] {
		if h.done || h.reqid != id {
			continue
		}
		if len(b) != wire.PacketOverhead+8*h.want {
			return // not a complete reply to this request
		}
		for off := wire.PacketOverhead; off < len(b); off += 8 {
			h.vals = append(h.vals, int64(binary.BigEndian.Uint64(b[off:off+8])))
		}
		s.finish(k, h, nil)
		return
	}
}

// sweep runs at a resend time: every outstanding packet of k that is
// due either expires (attempts or budget drained) or is sent again on
// its own jittered schedule. It is the only place a request datagram
// is resent.
func (s *Session) sweep(k *sock, now time.Time) {
	for _, h := range k.q[:k.sent] {
		if h.done || h.resendAt.After(now) {
			continue
		}
		if h.attempt >= s.policy.Attempts || (!h.deadline.IsZero() && !now.Before(h.deadline)) {
			s.finish(k, h, fmt.Errorf("udpnet: shard %d: no response inside the retransmit budget after %d sends",
				k.shard, h.attempt))
			continue
		}
		h.attempt++
		s.retrans.Add(1)
		s.packets.Add(1)
		s.rpcs.Add(int64(h.want))
		_, _ = k.conn.Write(h.buf) // same reasoning as flush's send
		s.arm(h, now)
	}
}

// fail completes every packet in k's window with the socket's terminal
// error (Close during an exchange).
func (s *Session) fail(k *sock, err error) {
	for _, h := range k.q {
		if !h.done {
			s.finish(k, h, err)
		}
	}
}

// finish marks h complete and releases its window slot. Every submitted
// handle passes through here exactly once, whichever way it ended.
func (s *Session) finish(k *sock, h *handle, err error) {
	h.err, h.done = err, true
	k.live--
	s.outstanding.Add(-1)
}
