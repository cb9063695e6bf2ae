// Package merge implements the difference merging network M(t,δ) of
// Section 3 of the paper: a regular balancing network of width t and depth
// lg δ that merges two step input sequences x (first t/2 wires) and y
// (second t/2 wires) into one step output sequence whenever
// 0 <= Sum(x) - Sum(y) <= δ.
//
// Valid parameters are t = p·2^i and δ = 2^j with p >= 1 and 1 <= j < i
// (paper §3). The construction is recursive on δ (Fig. 5):
//
//   - M(t,2) is a single layer of t/2 (2,2)-balancers: balancer b_i
//     (1 <= i < t/2) takes y_{i-1}, x_i and emits z_{2i-1}, z_{2i};
//     balancer b_0 takes x_0, y_{t/2-1} and emits z_0, z_{t-1}.
//   - M(t,δ) feeds the even subsequences of x and y to one M(t/2,δ/2) and
//     the odd subsequences to another, then combines their outputs with an
//     M(t,2) layer.
//
// The key difference from the bitonic merger (§3.3) is that the depth
// depends only on δ, not on t.
package merge

import (
	"fmt"

	"repro/internal/network"
)

// Valid reports whether (t, δ) is a valid parameter pair: t = p·2^i,
// δ = 2^j, p >= 1, 1 <= j < i.
func Valid(t, delta int) bool {
	if t < 4 || delta < 2 || delta&(delta-1) != 0 {
		return false
	}
	j := log2(delta)
	// Need t divisible by 2^i for some i > j, i.e. by 2^(j+1).
	return t%(1<<(j+1)) == 0
}

// log2 returns floor(lg x) for x >= 1.
func log2(x int) int {
	k := 0
	for x > 1 {
		x >>= 1
		k++
	}
	return k
}

// New constructs M(t,delta) as a standalone network.
func New(t, delta int) (*network.Network, error) {
	if !Valid(t, delta) {
		return nil, fmt.Errorf("merge: invalid parameters M(%d,%d): need t=p*2^i, delta=2^j, 1<=j<i", t, delta)
	}
	b, in := network.NewBuilder(fmt.Sprintf("M(%d,%d)", t, delta), t)
	out := Build(b, in, delta)
	return b.Finalize(out)
}

// Build appends M(len(in), delta) to an in-progress network, consuming the
// given ports (first half = x, second half = y) and returning the output
// ports z in order. Parameter validity is the caller's responsibility when
// composing (New validates for standalone use); Build panics on odd widths.
func Build(b *network.Builder, in []network.Port, delta int) []network.Port {
	t := len(in)
	if t%2 != 0 {
		panic(fmt.Sprintf("merge: Build with odd width %d", t))
	}
	if delta == 2 {
		return buildBase(b, in)
	}
	x, y := in[:t/2], in[t/2:]
	// Even and odd subsequences of each half (Fig. 5, sub-step 1).
	xe, xo := split(x)
	ye, yo := split(y)
	g := Build(b, concat(xe, ye), delta/2) // M0(t/2, δ/2)
	h := Build(b, concat(xo, yo), delta/2) // M1(t/2, δ/2)
	// Final M(t,2) layer on (g, h) (sub-step 2).
	return buildBase(b, concat(g, h))
}

// buildBase appends the single-layer M(t,2) network.
func buildBase(b *network.Builder, in []network.Port) []network.Port {
	t := len(in)
	x, y := in[:t/2], in[t/2:]
	z := make([]network.Port, t)
	// b_0: inputs x_0 and y_{t/2-1}; outputs z_0 and z_{t-1}.
	o := b.Balancer([]network.Port{x[0], y[t/2-1]}, 2)
	if o == nil {
		return make([]network.Port, t)
	}
	z[0], z[t-1] = o[0], o[1]
	// b_i for 1 <= i < t/2: inputs y_{i-1}, x_i; outputs z_{2i-1}, z_{2i}.
	for i := 1; i < t/2; i++ {
		o := b.Balancer([]network.Port{y[i-1], x[i]}, 2)
		if o == nil {
			return make([]network.Port, t)
		}
		z[2*i-1], z[2*i] = o[0], o[1]
	}
	return z
}

// split returns the even- and odd-indexed ports of s.
func split(s []network.Port) (even, odd []network.Port) {
	even = make([]network.Port, 0, (len(s)+1)/2)
	odd = make([]network.Port, 0, len(s)/2)
	for i, p := range s {
		if i%2 == 0 {
			even = append(even, p)
		} else {
			odd = append(odd, p)
		}
	}
	return even, odd
}

func concat(a, b []network.Port) []network.Port {
	out := make([]network.Port, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}
