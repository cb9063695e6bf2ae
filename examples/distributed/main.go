// Distributed deployment: every balancer of C(8,24) runs as its own
// server goroutine with channel links — the shape of the 10-workstation
// system in the paper's experimental companion (refs [19,20]). Clients
// inject tokens as messages, per-hop latency is configurable, and the
// counter values remain dense across the whole deployment.
//
// The deployment speaks the batched message protocol: concurrent clients
// entering on the same input wire coalesce into shared pipeline
// wavefronts (one message per balancer touched per batch), so the
// message bill falls far below tokens x depth.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	countnet "repro"
)

func main() {
	net, err := countnet.NewCWT(8, 24)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deploying %s: %d balancer servers, depth %d\n",
		net.Name(), net.Size(), net.Depth())

	// A small per-hop latency makes the "remote object" cost visible —
	// and opens the coalescing windows: while one flight is in the
	// network, later arrivals pool into the next batch.
	cfg := countnet.DistributedConfig{LinkBuffer: 4, HopLatency: 100 * time.Microsecond}
	cluster := countnet.StartDistributedCluster(net, cfg)
	defer cluster.Stop()
	// The client is the same coalescing counter the TCP and UDP
	// deployments use; over this link its RPCs are link-level messages,
	// and the only error it can return is "closed".
	ctr := cluster.NewCounter()
	defer ctr.Close()

	const clients, per = 40, 30
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
			log.Fatalf("distributed counter not dense at %d: %d", i, v)
		}
	}
	fmt.Printf("%d increments across %d clients in %v — all values dense\n",
		len(all), clients, elapsed.Round(time.Millisecond))
	uncoalesced := int64(len(all)) * int64(net.Depth())
	fmt.Printf("messages: %d for %d tokens (%.2f msgs/token; uncoalesced protocol would send %d)\n",
		ctr.RPCs(), len(all), float64(ctr.RPCs())/float64(len(all)), uncoalesced)

	// Explicit batching goes further still: one wavefront carries a whole
	// group, one message per balancer touched, whatever k is.
	before := ctr.RPCs()
	batch, err := ctr.IncBatch(0, 512, nil)
	if err != nil {
		log.Fatal(err)
	}
	batchMsgs := ctr.RPCs() - before
	fmt.Printf("IncBatch(k=512): %d values in %d messages (%.3f msgs/token)\n",
		len(batch), batchMsgs, float64(batchMsgs)/float64(len(batch)))

	// And antitokens ride the same protocol: revoke the whole batch.
	before = ctr.RPCs()
	revoked, err := ctr.DecBatch(0, 512, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DecBatch(k=512): revoked %d values in %d messages\n",
		len(revoked), ctr.RPCs()-before)

	// Scaling out: S independent deployments with pid striping. Each
	// stripe keeps its own coalescing windows and batched flights, values
	// land in disjoint residue classes (stripe s hands out v·S + s), and
	// the read side aggregates so exact-count accounting survives
	// sharding.
	const stripes = 4
	fleet := make([]*countnet.DistributedCluster, stripes)
	for i := range fleet {
		fleet[i] = countnet.StartDistributedCluster(net, cfg)
		defer fleet[i].Stop()
	}
	sh, err := countnet.NewFleet(fleet, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer sh.Close()
	var shWG sync.WaitGroup
	uniq := make([][]int64, clients)
	for pid := 0; pid < clients; pid++ {
		shWG.Add(1)
		go func(pid int) {
			defer shWG.Done()
			for i := 0; i < per; i++ {
				v, err := sh.Inc(pid)
				if err != nil {
					log.Fatal(err)
				}
				uniq[pid] = append(uniq[pid], v)
			}
		}(pid)
	}
	shWG.Wait()
	seen := make(map[int64]bool, clients*per)
	for _, vs := range uniq {
		for _, v := range vs {
			if seen[v] {
				log.Fatalf("sharded counter duplicated value %d", v)
			}
			seen[v] = true
		}
	}
	if got, err := sh.Read(); err != nil || got != int64(clients*per) {
		log.Fatalf("aggregate read (%d, %v) != %d ops", got, err, clients*per)
	}
	fmt.Printf("sharded x%d: %d increments, all unique, aggregate read matches; %.2f msgs/op across the fleet\n",
		stripes, clients*per, float64(sh.RPCs())/float64(clients*per))
}
