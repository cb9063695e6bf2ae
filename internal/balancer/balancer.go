// Package balancer implements the asynchronous switch primitives of the
// paper: (p,q)-balancers (Section 1.1, Fig. 1) realized as single atomic
// memory words, supporting both tokens (Fetch&Increment traffic) and
// antitokens (Fetch&Decrement traffic, per Aiello et al., ref [2] of the
// paper), plus the randomized exchanger used by diffracting trees (§1.4.1).
//
// A (p,q)-balancer has state s in {0..q-1}: the i-th token to be processed
// atomically exits on output wire s_i = (s0 + i) mod q. On an MIMD machine
// the balancer is one shared memory word; contention arises from tokens
// serializing on that word (§1.2).
package balancer

import (
	"fmt"
	"sync/atomic"
)

// PQ is a (p,q)-balancer state machine. The input width p does not affect
// the transition behaviour (a balancer processes one token at a time
// regardless of which input wire it arrived on); it is recorded for
// structural bookkeeping. The zero value is a balancer with q unset and is
// not usable; create with New or initialize in place with Set.
type PQ struct {
	count atomic.Int64 // net number of (tokens - antitokens) processed
	init  int64        // initial state s0 in [0, q)
	p, q  int32
}

// New returns a (p,q)-balancer with initial state 0.
func New(p, q int) *PQ { return NewInit(p, q, 0) }

// NewInit returns a (p,q)-balancer whose first token exits on wire s0 mod q.
// Randomized initial states are the Section 7 open-problem ablation.
func NewInit(p, q int, s0 int64) *PQ {
	b := new(PQ)
	b.Set(p, q, s0)
	return b
}

// Set re-initializes b in place as a (p,q)-balancer whose first token
// exits on wire s0 mod q, with nothing processed yet. It lets a balancer
// live in a caller-owned slot, such as a network's cache-line arena.
// Not safe for use concurrent with Step/StepAnti.
func (b *PQ) Set(p, q int, s0 int64) {
	if p < 1 || q < 1 {
		panic(fmt.Sprintf("balancer: invalid widths (%d,%d)", p, q))
	}
	b.p, b.q = int32(p), int32(q)
	b.init = ((s0 % int64(q)) + int64(q)) % int64(q)
	b.count.Store(0)
}

// In returns the input width p.
func (b *PQ) In() int { return int(b.p) }

// Init returns the configured initial state s0.
func (b *PQ) Init() int64 { return b.init }

// Out returns the output width q.
func (b *PQ) Out() int { return int(b.q) }

// Step atomically processes one token and returns the output wire it exits
// on. Safe for concurrent use; this is the single atomic transition
// alpha(tau, b) of §2.2.
func (b *PQ) Step() int {
	k := b.count.Add(1) - 1 // state consumed by this token
	return b.wire(k)
}

// StepK is Step that also returns the token's sequence index k at this
// balancer (the k-th token ever processed takes port (init+k) mod q).
// Used by execution tracing.
func (b *PQ) StepK() (k int64, port int) {
	k = b.count.Add(1) - 1
	return k, b.wire(k)
}

// StepN atomically processes n consecutive tokens with a single atomic
// fetch-add and returns the sequence index of the first of them: the
// batch's tokens take output wires (init+k) mod q, (init+k+1) mod q, ...,
// (init+k+n-1) mod q. Because a balancer hands consecutive tokens to
// consecutive wires round-robin, one fetch-add of n is indistinguishable
// (to every other process, and in every quiescent state) from n
// back-to-back Step calls — this is the batched-traversal primitive.
// It panics for n < 1.
func (b *PQ) StepN(n int64) (k int64) {
	if n < 1 {
		panic(fmt.Sprintf("balancer: StepN of non-positive count %d", n))
	}
	return b.count.Add(n) - n
}

// StepAnti atomically processes one antitoken: it decrements the balancer
// state and exits on the wire the most recent token would have used, so a
// token/antitoken pair cancels out (ref [2]).
func (b *PQ) StepAnti() int {
	k := b.count.Add(-1) // state after cancellation == wire of cancelled token
	return b.wire(k)
}

// StepAntiN atomically processes n consecutive antitokens with a single
// atomic fetch-add of -n and returns the sequence index of the LAST of
// them (the post-subtraction count): with a pre-call count of c, the
// batch's antitokens exit on the wires of indices c-1, c-2, ..., c-n —
// the same multiset DistributeInto(init+(c-n), n, out) describes. One
// fetch-add of -n is indistinguishable (to every other process, and in
// every quiescent state) from n back-to-back StepAnti calls, the
// antitoken mirror of StepN. It panics for n < 1.
func (b *PQ) StepAntiN(n int64) (k int64) {
	if n < 1 {
		panic(fmt.Sprintf("balancer: StepAntiN of non-positive count %d", n))
	}
	return b.count.Add(-n)
}

// wire maps a (possibly negative) step index to an output wire. A
// power-of-two q takes a mask, which is the same wire for negative k too
// (two's complement), and spares the hop a division.
func (b *PQ) wire(k int64) int {
	q := int64(b.q)
	if q&(q-1) == 0 {
		return int((b.init + k) & (q - 1))
	}
	w := (b.init + k) % q
	if w < 0 {
		w += q
	}
	return int(w)
}

// State returns the current state (the wire the next token will take).
// Only meaningful in a quiescent state.
func (b *PQ) State() int { return b.wire(b.count.Load()) }

// Count returns the net number of tokens minus antitokens processed.
func (b *PQ) Count() int64 { return b.count.Load() }

// Reset restores the balancer to its initial state. Not safe for use
// concurrent with Step/StepAnti.
func (b *PQ) Reset() { b.count.Store(0) }

// OutputCounts returns, for a quiescent balancer, the number of tokens that
// have exited on each output wire, assuming the recorded initial state and
// a non-negative net count. The result always satisfies the step property
// after rotating by the initial state; with init 0 it is exactly the step
// sequence of §2.2.
func (b *PQ) OutputCounts() []int64 {
	return Distribute(b.init, b.count.Load(), int(b.q))
}

// Distribute returns how s tokens spread over q output wires when the first
// token exits on wire s0: wire i receives one token for every j in [0,s)
// with (s0+j) mod q == i. It panics for negative s.
func Distribute(s0, s int64, q int) []int64 {
	return DistributeInto(s0, s, make([]int64, q))
}

// DistributeInto is Distribute writing into the caller-provided slice
// (whose length is the output width q), for allocation-free hot paths such
// as batched traversal. It returns out.
func DistributeInto(s0, s int64, out []int64) []int64 {
	if s < 0 {
		panic(fmt.Sprintf("balancer: Distribute of negative count %d", s))
	}
	q := len(out)
	for i := range out {
		// First j >= 0 with (s0+j) mod q == i.
		d := (int64(i) - s0) % int64(q)
		if d < 0 {
			d += int64(q)
		}
		if d < s {
			out[i] = (s - d + int64(q) - 1) / int64(q)
		} else {
			out[i] = 0
		}
	}
	return out
}

// Toggle is the special case of a (p,2)-balancer, kept as a distinct type
// because diffracting trees and ladder layers use it on their hot path.
type Toggle struct {
	count atomic.Int64
}

// Step returns 0 or 1, alternating atomically starting with 0.
func (t *Toggle) Step() int { return int((t.count.Add(1) - 1) & 1) }

// StepAnti undoes the most recent step.
func (t *Toggle) StepAnti() int { return int(t.count.Add(-1) & 1) }

// Count returns the net number of tokens processed.
func (t *Toggle) Count() int64 { return t.count.Load() }

// Reset restores the initial state (not concurrency-safe).
func (t *Toggle) Reset() { t.count.Store(0) }
