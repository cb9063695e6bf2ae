package tcpnet

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/wire"
	"repro/internal/xport"
)

// scrape GETs url and returns the status code and body.
func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// parseMetrics reads a /metrics body into series -> value (series is
// the full `name{labels}` sample key; comment lines are skipped).
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardControlPlaneEndpoints drives traffic at a 2-shard C(4,8)
// deployment and checks the shard's admin surface end to end: /status
// topology, /metrics counters moving, /health quiescence flipping as
// clients connect and leave, and the 503 after Close.
func TestShardControlPlaneEndpoints(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	var shards []*Shard
	addrs := make([]string, 2)
	for i := range addrs {
		s, err := StartShard("127.0.0.1:0", topo, i, len(addrs))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		shards = append(shards, s)
		addrs[i] = s.Addr()
	}
	srv, err := ctlplane.Serve("127.0.0.1:0", shards[0])
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := scrape(t, base+"/health")
	if code != http.StatusOK {
		t.Fatalf("/health on idle shard = %d: %s", code, body)
	}
	var h ctlplane.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil || !h.Live || !h.Quiescent {
		t.Fatalf("idle shard health %q (err %v)", body, err)
	}

	ctr := NewCluster(topo, addrs).NewCounter()
	for pid := 0; pid < 8; pid++ {
		if _, err := ctr.Inc(pid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctr.IncBatch(3, 20, nil); err != nil {
		t.Fatal(err)
	}
	// A served frame is one the core answered, so with nothing lost the
	// shards' frames add up to the client's rpcs — HELLOs are neither.
	var served int64
	for _, s := range shards {
		for _, sm := range s.Gather() {
			if sm.Name == wire.MetricShardFrames {
				served += sm.Value
			}
		}
	}
	if served != ctr.RPCs() {
		t.Fatalf("shards served %d frames, the client sent %d rpcs", served, ctr.RPCs())
	}

	code, body = scrape(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	var st ShardStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status body %q: %v", body, err)
	}
	if st.Transport != "tcp" || st.Shard != 0 || st.Shards != 2 {
		t.Fatalf("/status = %+v", st)
	}
	if st.Balancers == 0 || st.Cells == 0 {
		t.Fatalf("/status reports an empty partition: %+v", st)
	}

	_, body = scrape(t, base+"/metrics")
	m := parseMetrics(t, body)
	series := `countnet_shard_frames_total{transport="tcp",shard="0"}`
	if m[series] == 0 {
		t.Fatalf("no frames counted after 8 incs:\n%s", body)
	}
	if m[`countnet_shard_conns_open{transport="tcp",shard="0"}`] == 0 {
		t.Fatalf("pooled session not visible in conns gauge:\n%s", body)
	}
	if m[`countnet_dedup_clients{transport="tcp",shard="0"}`] == 0 {
		t.Fatalf("counter's dedup window not visible:\n%s", body)
	}
	if h := shards[0].Health(); !h.Live || h.Quiescent {
		t.Fatalf("shard with open conns reports %+v", h)
	}

	// The client leaving returns the shard to quiescence...
	ctr.Close()
	waitFor(t, "shard quiescence after client close", func() bool {
		h := shards[0].Health()
		return h.Live && h.Quiescent
	})

	// ...and Close flips /health to 503.
	shards[0].Close()
	code, body = scrape(t, base+"/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/health on closed shard = %d: %s", code, body)
	}
}

// gatedConn blocks every Read until the gate closes; writes (and the
// HELLO announcement) pass through, so a dialed session looks healthy
// but its first flight parks mid-air — a deterministic in-flight state.
type gatedConn struct {
	net.Conn
	gate <-chan struct{}
}

func (g *gatedConn) Read(p []byte) (int, error) {
	<-g.gate
	return g.Conn.Read(p)
}

// TestCounterHealthFlipsAcrossDrain parks a flight behind a read gate
// and watches the counter's health walk the full lifecycle:
// live+quiescent -> live+in-flight -> draining (not live, 503) while
// Close waits the flight out -> closed with the flight landed.
func TestCounterHealthFlipsAcrossDrain(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cluster, stop := startCluster(t, topo, 2)
	defer stop()
	gate := make(chan struct{})
	cluster.SetDialWrapper(func(c net.Conn) net.Conn { return &gatedConn{Conn: c, gate: gate} })
	ctr := cluster.NewCounter()
	defer ctr.Close()

	if h := ctr.Health(); !h.Live || !h.Quiescent || h.Detail != "live" {
		t.Fatalf("fresh counter health = %+v", h)
	}

	srv, err := ctlplane.Serve("127.0.0.1:0", ctr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	incDone := make(chan error, 1)
	go func() {
		_, err := ctr.Inc(0)
		incDone <- err
	}()
	waitFor(t, "flight in the air", func() bool { return !ctr.Health().Quiescent })
	if h := ctr.Health(); !h.Live {
		t.Fatalf("in-flight counter should still be live: %+v", h)
	}

	closeDone := make(chan struct{})
	go func() {
		ctr.Close()
		close(closeDone)
	}()
	waitFor(t, "draining state", func() bool { return ctr.Health().Detail == "draining" })
	if h := ctr.Health(); h.Live || h.Quiescent {
		t.Fatalf("draining counter health = %+v", h)
	}
	if code, _ := scrape(t, base+"/health"); code != http.StatusServiceUnavailable {
		t.Fatalf("/health while draining = %d, want 503", code)
	}

	close(gate) // let the parked flight land
	if err := <-incDone; err != nil {
		t.Fatalf("gated Inc failed: %v", err)
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the flight landed")
	}
	if h := ctr.Health(); h.Live || !h.Quiescent || h.Detail != "closed" {
		t.Fatalf("closed counter health = %+v", h)
	}
}

// TestShardedCounterEndpointAggregation checks the fleet-level control
// plane: per-stripe samples side by side under stripe labels, nested
// /status with residue classes, and conjunction health.
func TestShardedCounterEndpointAggregation(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc, stop, err := startStripes(topo, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctr := newFleet(t, sc, 0)
	defer ctr.Close()
	for pid := 0; pid < 16; pid++ {
		if _, err := ctr.Inc(pid); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := ctlplane.Serve("127.0.0.1:0", ctr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	_, body := scrape(t, base+"/metrics")
	m := parseMetrics(t, body)
	var fleetRPCs int64
	for stripe := 0; stripe < 2; stripe++ {
		series := `countnet_client_rpcs_total{stripe="` + strconv.Itoa(stripe) + `",transport="tcp"}`
		v, ok := m[series]
		if !ok || v == 0 {
			t.Fatalf("stripe %d rpcs missing from fleet scrape:\n%s", stripe, body)
		}
		fleetRPCs += int64(v)
	}
	if got := ctr.RPCs(); fleetRPCs != got {
		t.Fatalf("scraped stripe rpcs sum to %d, aggregate says %d", fleetRPCs, got)
	}

	code, body := scrape(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	var st xport.ShardedStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status body %q: %v", body, err)
	}
	if len(st.Stripes) != 2 {
		t.Fatalf("fleet status has %d stripes, want 2: %s", len(st.Stripes), body)
	}
	if st.Stripes[1].ResidueClass != "v*2+1" {
		t.Fatalf("stripe 1 residue class = %q", st.Stripes[1].ResidueClass)
	}
	if h := ctr.Health(); !h.Live {
		t.Fatalf("fleet health = %+v", h)
	}

	// Closing one stripe takes the whole fleet's liveness down, and the
	// detail names the culprit.
	ctr.Counter(1).Close()
	h := ctr.Health()
	if h.Live || !strings.Contains(h.Detail, "stripe=1") {
		t.Fatalf("fleet health after stripe close = %+v", h)
	}
}

// TestSIGTERMDrainExactCount wires the fleet into DrainOnSignal, fires
// a real SIGTERM mid-run, and reconciles: every value handed out before
// the drain is unique, stranded callers see ErrClosed, and a fresh
// client's quiescent read equals exactly the number of successful
// increments — the drain lost and duplicated nothing.
func TestSIGTERMDrainExactCount(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc, stop, err := startStripes(topo, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctr := newFleet(t, sc, 0)

	done, cancel := DrainOnSignalForTest(t, ctr)
	defer cancel()

	var mu sync.Mutex
	var values []int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for {
				v, err := ctr.Inc(pid)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("pid %d: unexpected error %v", pid, err)
					}
					return
				}
				mu.Lock()
				values = append(values, v)
				mu.Unlock()
			}
		}(g)
	}

	time.Sleep(20 * time.Millisecond) // let the fleet take real traffic
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not finish within 10s of SIGTERM")
	}
	wg.Wait()

	if h := ctr.Health(); h.Live || !strings.Contains(h.Detail, "closed") {
		t.Fatalf("post-drain fleet health = %+v", h)
	}

	seen := make(map[int64]struct{}, len(values))
	for _, v := range values {
		if _, dup := seen[v]; dup {
			t.Fatalf("value %d handed out twice across the drain", v)
		}
		seen[v] = struct{}{}
	}

	fresh := newFleet(t, sc, 0)
	defer fresh.Close()
	total, err := fresh.Read()
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(values)) {
		t.Fatalf("quiescent read = %d, clients hold %d values: drain lost or duplicated tokens",
			total, len(values))
	}
}

// DrainOnSignalForTest installs the production drain hook on SIGTERM.
// signal.Notify intercepts the signal for the whole process, so the
// test harness survives the Kill below.
func DrainOnSignalForTest(t *testing.T, ctr *xport.ShardedCounter) (<-chan struct{}, func()) {
	t.Helper()
	return ctlplane.DrainOnSignal(func() { ctr.Close() }, syscall.SIGTERM)
}
