// Command ctlplanedoc generates the control-plane metric reference
// table embedded in OPERATIONS.md. It boots one loopback deployment of
// every transport (a TCP shard + counter, a UDP shard + counter, an
// in-memory inproc shard + counter, a distributed emulation counter),
// gathers every registry the control plane would scrape, and emits one
// markdown row per metric name:
// name, type, the labels its series carry, the registered help text,
// and a hand-maintained healthy range.
//
// The table is therefore derived from the same registrations /metrics
// serves — `make docs-check` regenerates it and diffs against
// OPERATIONS.md, so the manual cannot drift from the code. The command
// exits nonzero if transports register the same name with a different
// type or help, or if the healthy-range map here is missing a
// registered metric (or documents one that no longer exists).
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/distnet"
	"repro/internal/inproc"
	"repro/internal/tcpnet"
	"repro/internal/udpnet"
)

// healthy is the operator-facing healthy range per metric name — the
// one column a registration cannot carry. Every registered name MUST
// have an entry; every entry MUST match a registered name.
var healthy = map[string]string{
	"countnet_shard_frames_total":             "summed over shards = client rpcs_total on a lossless link; the gap is frames lost or refused",
	"countnet_shard_conns_open":               "= bound client sessions; 0 on an idle shard",
	"countnet_shard_conns_total":              "monotone; fast growth = reconnect churn",
	"countnet_shard_packets_total":            "grows with load (UDP datagrams in)",
	"countnet_shard_dropped_packets_total":    "0; any growth = malformed or truncated datagrams",
	"countnet_shard_workers":                  "= configured pool size (constant)",
	"countnet_shard_workers_busy":             "≤ workers; pinned at workers = shard saturated",
	"countnet_shard_recv_batches_total":       "packets/batches = mean recvmmsg burst; ≈1 under light load",
	"countnet_shard_recv_batch_packets_total": "= shard packets_total (the same datagrams, syscall view)",
	"countnet_shard_send_batches_total":       "≤ send packets; packets/batches = mean sendmmsg burst",
	"countnet_shard_send_batch_packets_total": "= replies written; ≈ packets − drops",
	"countnet_dedup_clients":                  "= client ids seen; bounded by the dedup client cap",
	"countnet_dedup_pinned_clients":           "= connected client ids; ≤ clients",
	"countnet_dedup_records":                  "≤ clients × window size",
	"countnet_dedup_replays_total":            "0 on clean TCP; grows with retransmits/retries",
	"countnet_dedup_client_evictions_total":   "≈0; steady growth = client cap too small for the fleet",
	"countnet_dedup_min_idle_seconds":         "= configured eviction floor (constant)",
	"countnet_dedup_oldest_idle_seconds":      "≤ max_idle with age expiry on; unbounded growth with it off = departed clients pile up",
	"countnet_dedup_max_idle_seconds":         "= configured age-expiry bound (constant); 0 = age expiry disabled",
	"countnet_dedup_client_expirations_total": "≈0 with a stable client set; growth = abandoned client ids reclaimed",
	"countnet_client_rpcs_total":              "≈1.05 per token at k=64 (E25-E28); dist: 0.67 link messages",
	"countnet_client_flights_total":           "= operations issued (one per batch/window)",
	"countnet_client_flight_retries_total":    "0 on a healthy network; growth = sessions dying mid-flight",
	"countnet_client_inflight":                "≤ concurrent callers; 0 when quiescent",
	"countnet_client_windows_total":           "grows under concurrency (coalesced groups)",
	"countnet_client_window_tokens_total":     "tokens/windows = coalescing win; ≈1 means no sharing",
	"countnet_client_pool_checkouts_total":    "= flights (each checks out one session)",
	"countnet_client_pool_dials_total":        "≈ pool width; steady growth = session churn",
	"countnet_client_pool_evictions_total":    "0; growth = probe failures or mid-flight deaths",
	"countnet_client_pool_idle":               "≤ pool width",
	"countnet_client_packets_total":           "≤ rpcs (MTU packing amortizes frames per datagram)",
	"countnet_client_retransmits_total":       "0 on a clean network; rate tracks packet loss",
	"countnet_client_pipeline_depth":          "= configured depth (constant); 1 by default",
	"countnet_client_outstanding_packets":     "≤ depth × shards × sessions; 0 when quiescent",
	"countnet_client_flight_seconds":          "p99 ≈ one RTT × pipeline depth; spikes track retries (see OPERATIONS.md triage)",
	"countnet_client_attempt_seconds":         "≈ one wire RTT; ≪ flight_seconds unless retries are zero",
	"countnet_client_coalesce_wait_seconds":   "≤ one flight; grows with window size under concurrency",
	"countnet_client_pool_checkout_seconds":   "≈0 with idle sessions; ≈ dial time after evictions",
	"countnet_client_flight_attempts":         "p99 = 1 on a healthy network; >1 tracks retries_total",
	"countnet_client_flight_events":           "≤ ring capacity (64); = recent completed flights",
}

type row struct {
	typ    ctlplane.Type
	help   string
	labels map[string]bool
}

func main() {
	rows := make(map[string]*row)
	merge := func(samples []ctlplane.Sample) {
		for _, s := range samples {
			r, ok := rows[s.Name]
			if !ok {
				r = &row{typ: s.Type, help: s.Help, labels: make(map[string]bool)}
				rows[s.Name] = r
			}
			if r.typ != s.Type || r.help != s.Help {
				fatalf("metric %s registered inconsistently across transports:\n  %s / %q\n  %s / %q",
					s.Name, r.typ, r.help, s.Type, s.Help)
			}
			for _, l := range s.Labels {
				r.labels[l.Key] = true
			}
		}
	}

	topo, err := core.New(4, 8)
	if err != nil {
		fatalf("%v", err)
	}

	ts, err := tcpnet.StartShard("127.0.0.1:0", topo, 0, 1)
	if err != nil {
		fatalf("tcp shard: %v", err)
	}
	tctr := tcpnet.NewCluster(topo, []string{ts.Addr()}).NewCounter()
	merge(ts.Gather())
	merge(tctr.Gather())
	tctr.Close()
	ts.Close()

	us, err := udpnet.StartShard("127.0.0.1:0", topo, 0, 1)
	if err != nil {
		fatalf("udp shard: %v", err)
	}
	uctr := udpnet.NewCluster(topo, []string{us.Addr()}).NewCounter()
	merge(us.Gather())
	merge(uctr.Gather())
	uctr.Close()
	us.Close()

	ic, istop, err := inproc.StartCluster(topo, 1)
	if err != nil {
		fatalf("inproc shard: %v", err)
	}
	ictr := ic.NewCounter()
	merge(ic.Shard(0).Gather())
	merge(ictr.Gather())
	ictr.Close()
	istop()

	dc := distnet.NewCluster(topo, distnet.Config{})
	dctr := dc.NewCounter()
	merge(dctr.Gather())
	dctr.Close()
	dc.Stop()

	names := make([]string, 0, len(rows))
	for name := range rows {
		if _, ok := healthy[name]; !ok {
			fatalf("metric %s is registered but has no healthy-range entry in ctlplanedoc", name)
		}
		names = append(names, name)
	}
	for name := range healthy {
		if _, ok := rows[name]; !ok {
			fatalf("ctlplanedoc documents %s but no transport registers it", name)
		}
	}
	sort.Strings(names)

	fmt.Println("| Metric | Type | Labels | Meaning | Healthy range |")
	fmt.Println("|---|---|---|---|---|")
	for _, name := range names {
		r := rows[name]
		keys := make([]string, 0, len(r.labels))
		for k := range r.labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("| `%s` | %s | %s | %s | %s |\n",
			name, r.typ, strings.Join(keys, ", "), r.help, healthy[name])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ctlplanedoc: "+format+"\n", args...)
	os.Exit(1)
}
