package xport_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/ctlplane"
	"repro/internal/network"
	"repro/internal/wire"
	"repro/internal/xport"
)

func mustTopo(t *testing.T, w, out int) *network.Network {
	t.Helper()
	topo, err := core.New(w, out)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// framesServed reads countnet_shard_frames_total the way a scrape does.
func framesServed(t *testing.T, c *xport.ShardCore) int64 {
	t.Helper()
	reg := ctlplane.NewRegistry()
	c.RegisterMetrics(reg)
	for _, s := range reg.Gather() {
		if s.Name == wire.MetricShardFrames {
			return s.Value
		}
	}
	t.Fatal("core registered no " + wire.MetricShardFrames)
	return 0
}

// Check is the whole refusal surface of a shard, with no side effect:
// every row is a frame some link could decode off the wire.
func TestShardCoreCheck(t *testing.T) {
	topo := mustTopo(t, 4, 8) // 8 exit wires; shard 1 of 3 owns ids 1, 4, 7, ...
	c := xport.NewShardCore(topo, 1, 3, wire.DedupConfig{})
	if want := (topo.Size() - 1 + 2) / 3; c.Balancers() != want || c.Cells() != 3 {
		t.Fatalf("shard 1 of 3 owns %d balancers and %d cells, want %d and 3 (wires 1, 4, 7)", c.Balancers(), c.Cells(), want)
	}
	last := int32(topo.Size() - 1)
	for last%3 != 1 {
		last--
	}
	const stride = 8 << 16
	for _, tc := range []struct {
		name  string
		f     wire.Frame
		bound bool
		want  bool
	}{
		{"owned node", wire.Frame{Op: wire.OpStep2, ID: 4}, true, true},
		{"last owned node", wire.Frame{Op: wire.OpStep2, ID: last}, true, true},
		{"v1 step needs no binding", wire.Frame{Op: wire.OpStep, ID: 4}, false, true},
		{"unowned residue", wire.Frame{Op: wire.OpStep2, ID: 3}, true, false},
		{"negative id", wire.Frame{Op: wire.OpStep2, ID: -2}, true, false},
		{"most negative id", wire.Frame{Op: wire.OpStep, ID: math.MinInt32}, true, false},
		{"id = Size()", wire.Frame{Op: wire.OpStep2, ID: int32(topo.Size())}, true, false},
		{"owned residue past Size()", wire.Frame{Op: wire.OpStepN2, ID: last + 3, N: 1}, true, false},
		{"owned cell", wire.Frame{Op: wire.OpCell2, ID: 7 | stride}, true, true},
		{"unowned cell", wire.Frame{Op: wire.OpCell2, ID: 6 | stride}, true, false},
		{"cell = OutWidth()", wire.Frame{Op: wire.OpCell2, ID: 8 | stride}, true, false},
		{"owned residue past OutWidth()", wire.Frame{Op: wire.OpCellN2, ID: 10 | stride, N: 1}, true, false},
		{"read owned cell, unbound", wire.Frame{Op: wire.OpRead, ID: 4}, false, true},
		{"read another shard's cell", wire.Frame{Op: wire.OpRead, ID: 5}, false, false},
		{"read negative cell", wire.Frame{Op: wire.OpRead, ID: -1}, false, false},
		{"read cell = OutWidth()", wire.Frame{Op: wire.OpRead, ID: 8}, false, false},
		{"read takes no packed stride", wire.Frame{Op: wire.OpRead, ID: 4 | stride}, false, false},
		{"hello is the link's", wire.Frame{Op: wire.OpHello, Client: 9}, true, false},
		{"unknown op", wire.Frame{Op: 11, ID: 4}, true, false},
		{"op zero", wire.Frame{ID: 4}, true, false},
		{"unbound v2 step", wire.Frame{Op: wire.OpStep2, ID: 4}, false, false},
		{"unbound v2 cell", wire.Frame{Op: wire.OpCell2, ID: 4 | stride}, false, false},
		{"unbound v2 stepn", wire.Frame{Op: wire.OpStepN2, ID: 4, N: 1}, false, false},
		{"unbound v2 celln", wire.Frame{Op: wire.OpCellN2, ID: 4 | stride, N: 1}, false, false},
		{"antitoken batch", wire.Frame{Op: wire.OpStepN2, ID: 4, N: -5}, true, true},
		{"revoking batch", wire.Frame{Op: wire.OpCellN, ID: 4 | stride, N: -5}, false, true},
	} {
		if got := c.Check(&tc.f, tc.bound); got != tc.want {
			t.Errorf("%s: Check(%+v, bound=%v) = %v, want %v", tc.name, tc.f, tc.bound, got, tc.want)
		}
	}
	for _, f := range []wire.Frame{
		{Op: wire.OpStepN, ID: 4}, {Op: wire.OpStepN2, ID: 4},
		{Op: wire.OpCellN, ID: 4 | stride}, {Op: wire.OpCellN2, ID: 4 | stride},
	} {
		for _, n := range []int64{0, math.MinInt64} {
			if f.N = n; c.Check(&f, true) {
				t.Errorf("Check accepted op %d with count %d", f.Op, n)
			}
		}
		if f.N = math.MinInt64 + 1; !c.Check(&f, true) {
			t.Errorf("Check refused op %d with count %d", f.Op, f.N)
		}
	}
	if got := framesServed(t, c); got != 0 {
		t.Fatalf("Check alone counted %d served frames", got)
	}
}

// Exec is the exactly-once gate in front of the state: a repeated
// sequence is answered from its record and the balancer does not move;
// a sequence whose history is gone is refused; and the frames counter
// counts what was answered — replays yes, refusals no.
func TestShardCoreExecDedup(t *testing.T) {
	topo := mustTopo(t, 4, 8)
	c := xport.NewShardCore(topo, 0, 1, wire.DedupConfig{Window: 4})
	e := c.Dedup().Bind(77)
	defer c.Dedup().Release(e)
	exec := func(f wire.Frame) (int64, bool) {
		t.Helper()
		if !c.Check(&f, true) {
			t.Fatalf("Check refused %+v", f)
		}
		return c.Exec(e, &f)
	}
	q := int64(topo.Node(0).Out())
	init := topo.Node(0).Balancer().Init()
	for seq := uint64(1); seq <= 3; seq++ {
		if v, ok := exec(wire.Frame{Op: wire.OpStep2, ID: 0, Seq: seq}); !ok || v != (init+int64(seq)-1)%q {
			t.Fatalf("token %d left balancer 0 on port %d (ok=%v), want %d", seq, v, ok, (init+int64(seq)-1)%q)
		}
	}
	// Seq 2 again, twice: its recorded port, and the balancer has still
	// seen exactly three tokens — the next fresh group starts at index 3.
	for i := 0; i < 2; i++ {
		if v, ok := exec(wire.Frame{Op: wire.OpStep2, ID: 0, Seq: 2}); !ok || v != (init+1)%q {
			t.Fatalf("replay of seq 2 = (%d, %v), want the recorded port %d", v, ok, (init+1)%q)
		}
	}
	if v, ok := exec(wire.Frame{Op: wire.OpStepN2, ID: 0, Seq: 4, N: 5}); !ok || v != 3 {
		t.Fatalf("first index of the group after 3 tokens and 2 replays = (%d, %v), want 3", v, ok)
	}
	if got := framesServed(t, c); got != 6 {
		t.Fatalf("frames = %d after 4 executions and 2 replays, want 6", got)
	}
	// Window 4 keeps 4 replies and 64×4 applied bits. Seq 1's reply slot
	// is overwritten by seq 5, and the block holding its applied bit by
	// seq 1+64×4: both histories gone, both refused, nothing executed.
	exec(wire.Frame{Op: wire.OpStep2, ID: 0, Seq: 5})
	if v, ok := exec(wire.Frame{Op: wire.OpStep2, ID: 0, Seq: 1}); ok {
		t.Fatalf("seq 1 answered %d after its reply was overwritten, want a refusal", v)
	}
	exec(wire.Frame{Op: wire.OpStep2, ID: 0, Seq: 1 + 64*4})
	if v, ok := exec(wire.Frame{Op: wire.OpStep2, ID: 0, Seq: 3}); ok {
		t.Fatalf("seq 3 answered %d past the applied-bit horizon, want a refusal", v)
	}
	if v, ok := exec(wire.Frame{Op: wire.OpStepN2, ID: 0, Seq: 2 + 64*4, N: 1}); !ok || v != 10 {
		t.Fatalf("balancer 0 stands at %d (ok=%v) after 10 applied tokens, want 10 — a refused frame moved it", v, ok)
	}
	if got := framesServed(t, c); got != 9 {
		t.Fatalf("frames = %d, want 9: two refusals are not served frames", got)
	}
}

// CELL and CELLN carry id = wire | stride<<16: the stride is the frame's,
// the cell is the low half, v1 and v2 ops share the arithmetic.
func TestShardCoreCellPacking(t *testing.T) {
	topo := mustTopo(t, 4, 8)
	c := xport.NewShardCore(topo, 1, 2, wire.DedupConfig{}) // owns wires 1, 3, 5, 7
	e := c.Dedup().Bind(1)
	defer c.Dedup().Release(e)
	const cell, t8 = 5, 8
	id := int32(cell | t8<<16)
	var seq uint64
	for _, step := range []struct {
		name string
		f    wire.Frame
		want int64
	}{
		{"cell starts at its wire index", wire.Frame{Op: wire.OpRead, ID: cell}, 5},
		{"CELL claims the value before the add", wire.Frame{Op: wire.OpCell2, ID: id}, 5},
		{"v1 CELL claims the next", wire.Frame{Op: wire.OpCell, ID: id}, 13},
		{"CELLN claim replies the value after the add", wire.Frame{Op: wire.OpCellN2, ID: id, N: 3}, 5 + 5*t8},
		{"CELLN revoke replies the value after the subtract", wire.Frame{Op: wire.OpCellN2, ID: id, N: -2}, 5 + 3*t8},
		{"v1 CELLN revoke", wire.Frame{Op: wire.OpCellN, ID: id, N: -3}, 5},
		{"the stride is the frame's, not the topology's", wire.Frame{Op: wire.OpCell2, ID: cell | 3<<16}, 5},
		{"READ sees every add", wire.Frame{Op: wire.OpRead, ID: cell}, 8},
		{"the neighbouring cell never moved", wire.Frame{Op: wire.OpRead, ID: 7}, 7},
	} {
		f := step.f
		seq++
		f.Seq = seq
		if !c.Check(&f, true) {
			t.Fatalf("%s: Check refused %+v", step.name, f)
		}
		if v, ok := c.Exec(e, &f); !ok || v != step.want {
			t.Fatalf("%s: Exec(%+v) = (%d, %v), want %d", step.name, f, v, ok, step.want)
		}
	}
}

// coreLink is the smallest possible link: xport.Walk on the client side,
// S cores on the serving side, a function call between them.
type coreLink struct {
	cores   []*xport.ShardCore
	entries []*wire.DedupEntry
	seq     uint64
	rpcs    int64
}

func (l *coreLink) Exchange(shard int, op byte, id int32, n int64) (int64, error) {
	f := wire.Frame{Op: op, ID: id, N: n}
	if op != wire.OpRead {
		l.seq++
		f.Op, f.Seq = wire.V2Op(op), l.seq
	}
	c := l.cores[shard]
	if !c.Check(&f, true) {
		return 0, fmt.Errorf("shard %d refused %+v", shard, f)
	}
	v, ok := c.Exec(l.entries[shard], &f)
	if !ok {
		return 0, fmt.Errorf("shard %d: %+v past the dedup horizon", shard, f)
	}
	l.rpcs++
	return v, nil
}

// The seam end to end: the client-side walk over 1, 2 and 3 cores hands
// out, op for op, the values the in-memory counting network does, reads
// the same quiescent count, and every exchange is one served frame.
func TestShardCoreWalkMatchesNetwork(t *testing.T) {
	for _, shape := range [][2]int{{4, 8}, {8, 24}} {
		for S := 1; S <= 3; S++ {
			t.Run(fmt.Sprintf("C(%d,%d)/S=%d", shape[0], shape[1], S), func(t *testing.T) {
				topo := mustTopo(t, shape[0], shape[1])
				ref := counter.NewNetwork(mustTopo(t, shape[0], shape[1]))
				link := &coreLink{}
				for i := 0; i < S; i++ {
					c := xport.NewShardCore(topo, i, S, wire.DedupConfig{})
					link.cores = append(link.cores, c)
					link.entries = append(link.entries, c.Dedup().Bind(1))
				}
				walk := xport.NewWalk(topo, S)
				var got, want []int64
				for i := 0; i < 200; i++ {
					pid, k := i*7+i/5, 1+(i*13)%37
					var err error
					got, want = got[:0], want[:0]
					switch i % 4 {
					case 0:
						var v int64
						v, err = walk.Inc(link, pid)
						got, want = append(got, v), append(want, ref.Inc(pid))
					case 1, 2:
						got, err = walk.Batch(link, pid%topo.InWidth(), int64(k), false, got)
						want = ref.IncBatch(pid, k, want)
					case 3:
						k = 1 + k%5 // revoke less than was claimed: the count stays positive
						got, err = walk.Batch(link, pid%topo.InWidth(), int64(k), true, got)
						want = ref.DecBatch(pid, k, want)
					}
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("op %d (kind %d, pid %d, k %d): cores gave %v, counter.Network gave %v", i, i%4, pid, k, got, want)
					}
					if i%50 == 49 {
						if n, err := walk.Read(link); err != nil || n != ref.Issued() {
							t.Fatalf("op %d: Read = (%d, %v), counter.Network issued %d", i, n, err, ref.Issued())
						}
					}
				}
				var served int64
				for _, c := range link.cores {
					served += framesServed(t, c)
				}
				if served != link.rpcs {
					t.Fatalf("shards served %d frames for %d exchanges", served, link.rpcs)
				}
			})
		}
	}
}
