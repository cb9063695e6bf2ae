package wire

// Canonical control-plane metric names and help strings. They live in
// wire — the substrate both transports already share — so tcpnet and
// udpnet register the SAME name with the SAME help text and type, and
// a fleet scrape aggregating both transports stays format-valid (the
// ctlplane registry panics on a name re-registered with drifting
// metadata, and cmd/ctlplanedoc diffs this catalogue against
// OPERATIONS.md's reference table).
//
// Naming: countnet_shard_* is the server side (one registry per shard
// process), countnet_client_* the counter-client side, countnet_dedup_*
// the exactly-once table (server side, registered by the shard that
// owns it). *_total suffixes are Prometheus counters; the rest are
// gauges.
const (
	// Shard (server) side.
	MetricShardFrames = "countnet_shard_frames_total"
	HelpShardFrames   = "Request frames the shard answered: executed, or replayed from a dedup record. HELLO bindings and refused frames are not counted."

	MetricShardConnsOpen = "countnet_shard_conns_open"
	HelpShardConnsOpen   = "Client connections the shard is currently tracking (TCP only)."

	MetricShardConns = "countnet_shard_conns_total"
	HelpShardConns   = "Client connections the shard has accepted since start (TCP only)."

	MetricShardPackets = "countnet_shard_packets_total"
	HelpShardPackets   = "Request datagrams received by the shard, duplicates included (UDP only)."

	MetricShardDrops = "countnet_shard_dropped_packets_total"
	HelpShardDrops   = "Request datagrams dropped whole without a reply: malformed or protocol-violating (UDP only)."

	MetricShardWorkers = "countnet_shard_workers"
	HelpShardWorkers   = "Packet-processing workers the shard was configured with (UDP only)."

	MetricShardWorkersBusy = "countnet_shard_workers_busy"
	HelpShardWorkersBusy   = "Workers currently executing a packet; the rest are parked on the dispatch queue (UDP only)."

	MetricShardRecvBatches = "countnet_shard_recv_batches_total"
	HelpShardRecvBatches   = "Receive syscalls issued by the shard; divide packets by this for the mean recvmmsg burst size (UDP only)."

	MetricShardRecvBatchPackets = "countnet_shard_recv_batch_packets_total"
	HelpShardRecvBatchPackets   = "Request datagrams delivered across all receive syscalls (UDP only)."

	MetricShardSendBatches = "countnet_shard_send_batches_total"
	HelpShardSendBatches   = "Send syscalls issued by the shard's reply path; divide packets by this for the mean sendmmsg burst size (UDP only)."

	MetricShardSendBatchPackets = "countnet_shard_send_batch_packets_total"
	HelpShardSendBatchPackets   = "Response datagrams written across all send syscalls (UDP only)."

	// Exactly-once dedup table (server side).
	MetricDedupClients = "countnet_dedup_clients"
	HelpDedupClients   = "Client windows currently tracked by the shard's exactly-once dedup table."

	MetricDedupPinned = "countnet_dedup_pinned_clients"
	HelpDedupPinned   = "Tracked client windows pinned against eviction by a live connection or in-flight packet."

	MetricDedupRecords = "countnet_dedup_records"
	HelpDedupRecords   = "(seq, reply) records held across all client windows — the dedup occupancy."

	MetricDedupReplays = "countnet_dedup_replays_total"
	HelpDedupReplays   = "Mutating frames answered from a recorded reply instead of re-executed — each one an absorbed duplicate or retry."

	MetricDedupEvictions = "countnet_dedup_client_evictions_total"
	HelpDedupEvictions   = "Client windows evicted at the Clients cap (least recently bound, unpinned, past the MinIdle guard)."

	MetricDedupMinIdle = "countnet_dedup_min_idle_seconds"
	HelpDedupMinIdle   = "Configured eviction idle guard: an unpinned client bound more recently than this is never evicted."

	MetricDedupOldestIdle = "countnet_dedup_oldest_idle_seconds"
	HelpDedupOldestIdle   = "Age of the least recently bound unpinned client window. With MaxIdle unset records never expire by age, so unbounded growth here is window bloat from abandoned clients; with MaxIdle set it stays under that bound."

	MetricDedupMaxIdle = "countnet_dedup_max_idle_seconds"
	HelpDedupMaxIdle   = "Configured idle-age expiry bound: an unpinned client idle longer than this is expired on the next registration. 0 = age expiry disabled."

	MetricDedupExpirations = "countnet_dedup_client_expirations_total"
	HelpDedupExpirations   = "Client windows expired by the MaxIdle idle-age bound (abandoned client ids reclaimed; distinct from cap evictions)."

	// Counter client side.
	MetricClientRPCs = "countnet_client_rpcs_total"
	HelpClientRPCs   = "Request frames sent by the counter's sessions, retired sessions folded in (over UDP, retransmitted copies count; over dist, the unit is the emulation's link-level message)."

	MetricClientFlights = "countnet_client_flights_total"
	HelpClientFlights   = "Pooled flights started: each checks a session out, runs one operation, and checks it back in."

	MetricClientRetries = "countnet_client_flight_retries_total"
	HelpClientRetries   = "Flight attempts beyond the first — each re-sent its full window from the sequence tape on a fresh session."

	MetricClientInflight = "countnet_client_inflight"
	HelpClientInflight   = "Flights currently holding pool sessions; zero is the quiescence an exact-count Read requires."

	MetricClientWindows = "countnet_client_windows_total"
	HelpClientWindows   = "Coalescing windows drained behind flight owners."

	MetricClientWindowTokens = "countnet_client_window_tokens_total"
	HelpClientWindowTokens   = "Inc callers that pooled into coalescing windows; divide by the windows total for the mean window size."

	MetricClientPoolCheckouts = "countnet_client_pool_checkouts_total"
	HelpClientPoolCheckouts   = "Sessions checked out of the pool by flights."

	MetricClientPoolDials = "countnet_client_pool_dials_total"
	HelpClientPoolDials   = "Fresh sessions dialed because no healthy idle session was available."

	MetricClientPoolEvictions = "countnet_client_pool_evictions_total"
	HelpClientPoolEvictions   = "Sessions evicted from the pool: failed the checkout health probe or died mid-flight."

	MetricClientPoolIdle = "countnet_client_pool_idle"
	HelpClientPoolIdle   = "Idle sessions currently retained by the pool."

	MetricClientPackets = "countnet_client_packets_total"
	HelpClientPackets   = "Request datagrams sent by the counter's sessions, first sends plus retransmits (UDP only)."

	MetricClientRetransmits = "countnet_client_retransmits_total"
	HelpClientRetransmits   = "Request datagrams that were retransmissions; a rising rate means loss or an unresponsive shard (UDP only)."

	MetricClientPipelineDepth = "countnet_client_pipeline_depth"
	HelpClientPipelineDepth   = "Configured per-socket window of outstanding request datagrams; every depth runs the same engine and sends the same packets (UDP only)."

	MetricClientOutstanding = "countnet_client_outstanding_packets"
	HelpClientOutstanding   = "Request datagrams currently in flight (sent, not yet matched to a response) across the counter's pooled sessions (UDP only)."

	// Flight-latency histograms (PR 10). All four _seconds families
	// record nanoseconds on lock-free log buckets and expose seconds;
	// the attempts family records plain counts. Observing them adds
	// zero frames — the bill stays bit-identical to the detached
	// counter (the conformance frame-bill gate pins this).
	MetricClientFlightSeconds = "countnet_client_flight_seconds"
	HelpClientFlightSeconds   = "End-to-end flight latency: first checkout through landing, retry backoff included; the tail an Inc caller actually feels."

	MetricClientAttemptSeconds = "countnet_client_attempt_seconds"
	HelpClientAttemptSeconds   = "Wire round-trip time of one flight attempt on one checked-out session (checkout excluded)."

	MetricClientCoalesceSeconds = "countnet_client_coalesce_wait_seconds"
	HelpClientCoalesceSeconds   = "Time an Inc caller spent parked in a coalescing window before its batched flight landed."

	MetricClientCheckoutSeconds = "countnet_client_pool_checkout_seconds"
	HelpClientCheckoutSeconds   = "Time flights spent checking a session out of the pool, health probes and fresh dials included."

	MetricClientFlightAttempts = "countnet_client_flight_attempts"
	HelpClientFlightAttempts   = "Tries per completed flight: 1 on a clean link, more means sessions died mid-flight and the tape replayed."

	MetricClientFlightEvents = "countnet_client_flight_events"
	HelpClientFlightEvents   = "Completed flights currently retained in the /debug/flights ring buffer."
)
