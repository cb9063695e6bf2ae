// TCP-sharded deployment of C(4,8) — the refs [19,20] workstation
// experiment in miniature: three shard servers each own a third of the
// balancers and exit cells; a single-token balancer crossing is one TCP
// round trip; concurrent client sessions still receive perfectly dense
// counter values.
//
// The wire protocol also carries batched frames: a session shepherds k
// tokens (or antitokens) as ONE pipeline — a STEPN round trip per
// balancer touched instead of k round trips per layer — and the
// coalescing Counter client merges concurrent Inc callers into shared
// pipelines automatically. That client (coalescing windows, pooled
// health-probed sessions, tape-driven exactly-once retries) is not
// TCP code: it is the shared transport-seam core in internal/xport,
// and the identical stack serves the UDP and in-memory transports —
// see DESIGN.md's "The transport seam" and `make conformance`.
//
// All servers run in this process on loopback for the demo; pointing the
// shard addresses at other machines distributes the network for real.
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
	addrs := make([]string, shards)
	var servers []*countnet.TCPShard
	for i := 0; i < shards; i++ {
		s, err := countnet.StartTCPShard("127.0.0.1:0", topo, i, shards)
		if err != nil {
			log.Fatal(err)
		}
		servers = append(servers, s)
		addrs[i] = s.Addr()
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	fmt.Printf("deployed %s across %d TCP shards: %v\n", topo.Name(), shards, addrs)

	cluster := countnet.NewTCPCluster(topo, addrs)
	fmt.Printf("each single-token Fetch&Increment costs %d round trips (depth %d + exit cell)\n",
		cluster.Hops(), topo.Depth())

	// The coalescing counter client: concurrent callers on the same input
	// wire share batched pipelines.
	ctr := cluster.NewCounter()
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
	uncoalesced := len(all) * cluster.Hops()
	fmt.Printf("round trips: %d for %d ops (%.2f rpcs/op; uncoalesced cost %d)\n",
		ctr.RPCs(), len(all), float64(ctr.RPCs())/float64(len(all)), uncoalesced)

	// Explicit batching: one session, one pipeline, k=512 values.
	sess, err := cluster.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	batch, err := sess.IncBatch(0, 512, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IncBatch(k=512): %d values in %d round trips (%.3f rpcs/token)\n",
		len(batch), sess.RPCs(), float64(sess.RPCs())/float64(len(batch)))
	if _, err := sess.DecBatch(0, 512, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("DecBatch(k=512): the whole batch revoked through the same frames")

	// Scaling out: a fleet of S independent deployments with pid
	// striping, each stripe's wires served from a pooled, self-healing
	// session pool (idle sessions health-probed at checkout; a
	// connection that dies mid-flight is evicted and the flight retried
	// exactly-once — seq-numbered frames are deduped server-side, so no
	// value is ever gapped or duplicated). Values land in disjoint
	// residue classes and the read side aggregates across stripes.
	const stripes = 2
	fleet := make([]*countnet.TCPCluster, stripes)
	for i := range fleet {
		c, stop, err := countnet.StartTCPCluster(topo, shards)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fleet[i] = c
	}
	fctr, err := countnet.NewFleet(fleet, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer fctr.Close()
	var fleetWG sync.WaitGroup
	uniq := make([][]int64, clients)
	for pid := 0; pid < clients; pid++ {
		fleetWG.Add(1)
		go func(pid int) {
			defer fleetWG.Done()
			for i := 0; i < per; i++ {
				v, err := fctr.Inc(pid)
				if err != nil {
					log.Fatal(err)
				}
				uniq[pid] = append(uniq[pid], v)
			}
		}(pid)
	}
	fleetWG.Wait()
	seen := make(map[int64]bool, clients*per)
	for _, vs := range uniq {
		for _, v := range vs {
			if seen[v] {
				log.Fatalf("fleet duplicated value %d", v)
			}
			seen[v] = true
		}
	}
	agg, err := fctr.Read()
	if err != nil {
		log.Fatal(err)
	}
	if agg != int64(clients*per) {
		log.Fatalf("aggregate read %d != %d ops", agg, clients*per)
	}
	fmt.Printf("sharded x%d fleet: %d increments, all unique, aggregate read matches; %.2f rpcs/op\n",
		stripes, clients*per, float64(fctr.RPCs())/float64(clients*per))

	// The control plane: one admin endpoint fronts the whole fleet with
	// /health (liveness + quiescence), /status (topology, residue
	// classes) and /metrics (Prometheus text format), served from
	// read-side closures over counters the data path already maintains —
	// attaching it adds zero frames to any flight. Per-stripe load shows
	// up under stripe="i" labels. See OPERATIONS.md for the manual.
	adm, err := countnet.ServeControlPlane("127.0.0.1:0", fctr)
	if err != nil {
		log.Fatal(err)
	}
	defer adm.Close()
	resp, err := http.Get("http://" + adm.Addr() + "/health")
	if err != nil {
		log.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("control plane /health (%d): %s\n", resp.StatusCode, strings.TrimSpace(string(health)))
	resp, err = http.Get("http://" + adm.Addr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "countnet_client_rpcs_total{") {
			fmt.Printf("control plane /metrics: %s\n", line)
		}
	}
	// In a real deployment, wire SIGTERM into the quiescent drain so a
	// rolling restart never loses or duplicates a value:
	//
	//	done, cancel := countnet.DrainOnSignal(fctr.Close, syscall.SIGTERM)
	//	defer cancel()
}
