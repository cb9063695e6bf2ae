package udpnet

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/wire"
)

func scrapeURL(t *testing.T, url string) (int, string) {
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

// TestUDPShardControlPlaneEndpoints checks a datagram shard's admin
// surface: /status topology, packet/frame counters moving under load,
// the dedup window visible in /metrics, and the 503 after Close.
func TestUDPShardControlPlaneEndpoints(t *testing.T) {
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

	code, body := scrapeURL(t, base+"/health")
	if code != http.StatusOK {
		t.Fatalf("/health on idle shard = %d: %s", code, body)
	}
	var h ctlplane.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil || !h.Live || !h.Quiescent {
		t.Fatalf("idle shard health %q (err %v)", body, err)
	}

	cluster := NewCluster(topo, addrs)
	lossless(cluster)
	ctr := cluster.NewCounter()
	defer ctr.Close()
	for pid := 0; pid < 8; pid++ {
		if _, err := ctr.Inc(pid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctr.IncBatch(3, 20, nil); err != nil {
		t.Fatal(err)
	}
	// A served frame is one the core answered, so with nothing lost or
	// retransmitted the shards' frames add up to the client's rpcs — the
	// HELLO heading every datagram is neither.
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

	code, body = scrapeURL(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	var st ShardStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status body %q: %v", body, err)
	}
	if st.Transport != "udp" || st.Shard != 0 || st.Shards != 2 {
		t.Fatalf("/status = %+v", st)
	}
	if st.Balancers == 0 || st.Cells == 0 {
		t.Fatalf("/status reports an empty partition: %+v", st)
	}

	_, body = scrapeURL(t, base+"/metrics")
	m := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
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
		m[line[:cut]] = v
	}
	lbl := `{transport="udp",shard="0"}`
	if m["countnet_shard_packets_total"+lbl] == 0 {
		t.Fatalf("no packets counted after 8 incs:\n%s", body)
	}
	if m["countnet_shard_frames_total"+lbl] == 0 {
		t.Fatalf("no frames counted after 8 incs:\n%s", body)
	}
	if m["countnet_dedup_clients"+lbl] == 0 {
		t.Fatalf("counter's dedup window not visible:\n%s", body)
	}

	shards[0].Close()
	shards[0].Close() // idempotent
	code, body = scrapeURL(t, base+"/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/health on closed shard = %d: %s", code, body)
	}
}

// sampleKey canonicalizes one gathered sample to a series identity.
func sampleKey(s ctlplane.Sample) string {
	var b strings.Builder
	b.WriteString(s.Name)
	for _, l := range s.Labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// TestMetricsMonotoneUnderChaos runs the lossy-duplicating-reordering
// fault injector under a concurrent workload while a scraper goroutine
// hammers the fleet's Gather the whole time (the -race payoff), and
// asserts every counter-typed series is monotone non-decreasing scrape
// over scrape — retransmit storms may inflate totals but can never make
// a bill run backwards.
func TestMetricsMonotoneUnderChaos(t *testing.T) {
	topo, err := core.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	const S = 2
	sc, stop, err := startStripes(topo, S, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	faults := Faults{Drop: 0.25, Dup: 0.2, Reorder: 0.2, Seed: 42}
	for i := 0; i < S; i++ {
		fastRetransmit(sc[i], 25)
		sc[i].SetDialWrapper(faults.Wrapper())
	}
	ctr := newFleet(t, sc, 2)
	defer ctr.Close()
	ctr.SetRetryPolicy(10, 60*time.Second)

	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		prev := make(map[string]int64)
		check := func() bool {
			for _, s := range ctr.Gather() {
				if s.Type != ctlplane.TypeCounter {
					continue
				}
				key := sampleKey(s)
				if last, ok := prev[key]; ok && s.Value < last {
					t.Errorf("counter %s went backwards: %d -> %d", key, last, s.Value)
					return false
				}
				prev[key] = s.Value
			}
			return true
		}
		for {
			select {
			case <-scrapeStop:
				check() // one final scrape after the workload lands
				return
			default:
				if !check() {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	const procs, per, k = 4, 6, 5
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			var vals []int64
			for i := 0; i < per; i++ {
				var err error
				vals, err = ctr.IncBatch(pid+i, k, vals)
				if err != nil {
					t.Errorf("pid %d op %d: %v", pid, i, err)
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	close(scrapeStop)
	<-scrapeDone
	if t.Failed() {
		return
	}

	// The chaos must actually have bitten for the monotonicity claim to
	// mean anything: with 25% drop the retransmit total cannot be zero.
	if ctr.Retransmits() == 0 {
		t.Fatal("fault injector produced no retransmits — chaos not exercised")
	}

	// And the exact count survives the whole circus: fresh fault-free
	// reads reconcile to the sequential total.
	for i := 0; i < S; i++ {
		sc[i].SetDialWrapper(nil)
	}
	fresh := newFleet(t, sc, 1)
	defer fresh.Close()
	total, err := fresh.Read()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(procs * per * k); total != want {
		t.Fatalf("post-chaos read = %d, want %d", total, want)
	}
}
