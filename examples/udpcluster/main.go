// UDP-sharded deployment of C(4,8) — the counting network served over a
// transport that loses, duplicates and reorders packets, and counting
// EXACTLY anyway.
//
// The trick is that the exactly-once wire protocol (v2) built for
// tcpnet's retry path is precisely what an unreliable transport needs:
// every mutating frame carries a client id and a sequence number, the
// shards keep bounded per-client dedup windows replaying recorded
// replies, and the client simply retransmits unacknowledged datagrams
// under a jittered exponential timer. However many copies of a frame
// arrive, in whatever order, it executes exactly once.
//
// Datagrams also pack several frames (up to a safe MTU budget), so a
// batched pipeline costs the SAME frame bill as TCP — one STEPN per
// balancer touched, one CELLN per exit cell — in several times fewer
// packets. The bill is identical by construction, not coincidence:
// the counter client driving this demo is the same transport-agnostic
// core (internal/xport) that drives the TCP and in-memory transports,
// and the conformance suite asserts the integer equality — see
// DESIGN.md's "The transport seam" and `make conformance`.
//
// All servers run in this process on loopback; the final section turns
// on a deterministic fault injector (10% loss each way, duplication,
// reordering) and counts through it.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	countnet "repro"
)

func main() {
	topo, err := countnet.NewCWT(4, 8)
	if err != nil {
		log.Fatal(err)
	}

	const shards = 3
	cluster, stop, err := countnet.StartUDPCluster(topo, shards)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	fmt.Printf("deployed %s across %d UDP shards\n", topo.Name(), shards)
	fmt.Printf("a single-token Fetch&Increment exchanges %d frames (depth %d + exit cell), like TCP\n",
		cluster.Hops(), topo.Depth())

	// The coalescing counter client: concurrent callers on the same
	// input wire share batched pipelines; packet loss is handled below
	// this API entirely.
	ctr := cluster.NewCounterPool(0)
	defer ctr.Close()

	const clients, per = 16, 125
	vals := make([][]int64, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < clients; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v, err := ctr.Inc(pid)
				if err != nil {
					log.Fatal(err)
				}
				vals[pid] = append(vals[pid], v)
			}
		}(pid)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []int64
	for _, v := range vals {
		all = append(all, v...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			log.Fatalf("distributed counter broke: position %d holds %d", i, v)
		}
	}
	fmt.Printf("%d increments from %d clients in %v — all values dense across the cluster\n",
		len(all), clients, elapsed.Round(time.Millisecond))
	fmt.Printf("cost: %d frames in %d datagrams (%.1f frames/packet), %d retransmits on loopback\n",
		ctr.RPCs(), ctr.Packets(), float64(ctr.RPCs())/float64(ctr.Packets()), ctr.Retransmits())

	// Explicit batching: one session, one pipeline, k=512 values — the
	// layered walk packs each topology layer's frames per shard.
	sess, err := cluster.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	batch, err := sess.IncBatch(0, 512, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IncBatch(k=512): %d values, %d frames in just %d datagrams\n",
		len(batch), sess.RPCs(), sess.Packets())
	if _, err := sess.DecBatch(0, 512, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("DecBatch(k=512): the whole batch revoked through the same frames")

	// Now the point of the exercise: a deliberately bad network. Ten
	// percent of datagrams vanish in each direction, some are
	// duplicated, some arrive out of order — and the count stays exact,
	// because retransmitted frames are replayed from the shards' dedup
	// windows, never re-executed.
	lossy, lstop, err := countnet.StartUDPCluster(topo, shards)
	if err != nil {
		log.Fatal(err)
	}
	defer lstop()
	lossy.SetDialWrapper(countnet.UDPFaults{
		Drop: 0.10, Dup: 0.10, Reorder: 0.10, Seed: 42,
	}.Wrapper())
	lctr := lossy.NewCounterPool(0)
	defer lctr.Close()
	var lwg sync.WaitGroup
	luniq := make([][]int64, clients)
	lstart := time.Now()
	for pid := 0; pid < clients; pid++ {
		lwg.Add(1)
		go func(pid int) {
			defer lwg.Done()
			for i := 0; i < per/5; i++ {
				v, err := lctr.Inc(pid)
				if err != nil {
					log.Fatal(err)
				}
				luniq[pid] = append(luniq[pid], v)
			}
		}(pid)
	}
	lwg.Wait()
	seen := make(map[int64]bool)
	for _, vs := range luniq {
		for _, v := range vs {
			if seen[v] {
				log.Fatalf("lossy run duplicated value %d", v)
			}
			seen[v] = true
		}
	}
	total, err := lctr.Read()
	if err != nil {
		log.Fatal(err)
	}
	if total != int64(len(seen)) {
		log.Fatalf("lossy run leaked: read %d, issued %d", total, len(seen))
	}
	fmt.Printf("lossy fabric (10%% drop + dup + reorder): %d increments in %v, all unique, read matches\n",
		len(seen), time.Since(lstart).Round(time.Millisecond))
	fmt.Printf("reliability bill: %d/%d datagrams were retransmits (%.1f%%)\n",
		lctr.Retransmits(), lctr.Packets(),
		100*float64(lctr.Retransmits())/float64(lctr.Packets()))

	// The same reliability bill, as an operator would see it: attach the
	// control plane to the lossy counter and scrape /metrics — the
	// retransmit and packet totals above are Prometheus counters, so a
	// loss spike shows up as a rate change on a dashboard rather than a
	// line in a demo. See OPERATIONS.md for the fault-triage recipes.
	adm, err := countnet.ServeControlPlane("127.0.0.1:0", lctr)
	if err != nil {
		log.Fatal(err)
	}
	defer adm.Close()
	resp, err := http.Get("http://" + adm.Addr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "countnet_client_retransmits_total{") ||
			strings.HasPrefix(line, "countnet_client_packets_total{") {
			fmt.Printf("control plane /metrics: %s\n", line)
		}
	}
}
