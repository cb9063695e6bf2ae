# Every gate is declared here, once: .github/workflows/ci.yml runs these
# targets and restates none of their commands, so `make check` before
# pushing is exactly what CI runs.

GO ?= go

# pinned,<regex>,<packages>,<kinds>: fail unless every alternative of a
# name-pinning regex matches at least one existing test of those kinds.
# `go test -run 'A|B'` exits 0 when B matches nothing, so without this
# check renaming a pinned test would silently drop its gate.
define pinned
@names="$$($(GO) test -list '$(1)' $(2) | grep -E '^($(3))')"; \
for pat in $$(echo '$(1)' | tr '|' ' '); do \
	echo "$$names" | grep -q "$$pat" || { echo "pinned gate '$$pat' matches no test in $(2)" >&2; exit 1; }; \
done
endef

.PHONY: check build vet fmt lint test race resilience conformance bench-smoke bench-record bench-test bench fuzz docs-check

check: build vet fmt lint race resilience conformance bench-smoke bench-test docs-check

build:
	$(GO) build ./...

# Both build-tag variants of udpnet's batched-syscall files are vetted:
# the default build resolves the recvmmsg/sendmmsg fast path, the
# countnet_nommsg build resolves the portable single-syscall fallback.
vet:
	$(GO) vet ./...
	$(GO) vet -tags countnet_nommsg ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

# The project's own analyzers (cmd/countlint): spin-loop hygiene,
# atomics-only field access, build-tag pairing, errors.Is on the xport
# sentinel, and metric-name conventions.
lint:
	$(GO) run ./cmd/countlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short -timeout 10m ./...

# The exactly-once gates pinned BY NAME (a rename can't silently drop
# them — see `pinned`): the tcpnet retry/dedup regressions, the
# session-kill chaos grid, the checkout health probe, Close racing a retry, the v1/v2
# codec distinction, the shared wire codec/packet fuzz seeds, and the
# udpnet loss/dup/reorder chaos grid with its retransmit and
# replay-not-reexecute regressions, and the control-plane gates (the
# Prometheus text-format validator, endpoint/health-lifecycle tests,
# SIGTERM-drain exact-count reconciliation, and the monotone-metrics
# chaos scrape), and the raw-speed-path gates (pipelined sessions
# through reorder-heavy fault grids staying exact, the pipelined frame
# bill matching stop-and-wait, and worker-pool packet-buffer
# isolation, and a datagram delivered late past the dedup window
# staying exact), and the observability gates (the histogram
# scraper-vs-writers race consistency check, the Prometheus histogram
# exposition format, the bounded flight ring, and the
# zero-added-frames latency gate replaying E31's exact bill on every
# frame-speaking transport), and the serving seam's own table tests
# (TestShardCore*: the one frame executor's refusal surface, replay and
# horizon refusal, cell-id packing, and Walk-over-cores equivalence),
# and the network layout gates (C(w,t) built in a bounded number of
# allocations, every balancer alone on a 64-byte-aligned cache line),
# and the GC-proof serving path (the shard's packet-buffer free list
# keeps its buffers across GCs and within its bound, a client's dedup
# rings stop reallocating past its first window, and the udp session
# allocates nothing per op, under -race too), and the cold-start bills
# (registering a metric allocates nothing, and inproc-k1's set-up cycle
# stays within its allocation count).
RESILIENCE := TestRetryExactlyOnce|TestChaosSessionKill|TestDedupSurvives|TestDedupConfig|TestPoolHealthCheck|TestCounterCloseDuringRetry|TestLegacyFrames|TestFrameRoundTrip|TestPacketRoundTrip|FuzzFrameCodec|FuzzPacketCodec|TestUDPChaosExactCountGrid|TestUDPRetransmitExactlyOnce|TestUDPResponseLoss|TestUDPMalformedPackets|TestUDPBatchRPCsMatchTCPFloor|TestUDPPipelineReorderExactCount|TestUDPPipelineRPCFloorMatchesSerial|TestUDPShardWorkersBufferIsolation|TestUDPDelayedDuplicateExactCount|TestWritePrometheusFormat|TestServeEndpoints|TestDrainOnSignal|TestFleetAggregation|TestShardControlPlaneEndpoints|TestCounterHealthFlipsAcrossDrain|TestShardedCounterEndpointAggregation|TestSIGTERMDrainExactCount|TestUDPShardControlPlaneEndpoints|TestMetricsMonotoneUnderChaos|TestHistogramRaceConsistency|TestPrometheusHistogramFormat|TestFlightRingBufferBounded|TestLatencyFrameBillUnchanged|TestShardCore|TestNewAllocs|TestBalancerArenaLayout|TestUDPShardBufPool|TestDedupRingsStopGrowing|TestUDPSessionZeroAlloc|TestRegistryRegisterAllocs|TestColdStartAllocs
RESILIENCE_PKGS := ./internal/tcpnet ./internal/udpnet ./internal/wire ./internal/ctlplane ./internal/conformance ./internal/xport ./internal/core ./internal/network ./internal/inproc

resilience:
	$(call pinned,$(RESILIENCE),$(RESILIENCE_PKGS),Test|Fuzz)
	$(GO) test -race -run '$(RESILIENCE)' $(RESILIENCE_PKGS)

# The transport conformance suite pinned BY NAME, run under the race
# detector: one behavioural contract — chaos exact-count grids,
# deterministic retry/replay, shared Close semantics, drain health
# flips, integer-identical frame bills, single-source retry defaults —
# executed against every transport on the xport seam (tcp, udp,
# inproc, dist). A new transport passes this suite or it does not ship.
CONFORMANCE := TestConformance|TestTransportFrameBillEquality|TestRetryDefaultsSingleSource

conformance:
	$(call pinned,$(CONFORMANCE),./internal/conformance,Test)
	$(GO) test -race -count=1 -run '$(CONFORMANCE)' ./internal/conformance

# Covers every package, the distributed benchmarks in internal/distnet,
# internal/tcpnet and internal/udpnet (batched protocol, E25) included;
# the second pass pins the sharded-deployment (E26), dedup-enabled (E27)
# and UDP-transport (E28) benchmarks by name so a rename can't silently
# drop them (see `pinned`), and the third pins the raw-speed-path allocation gates
# (E30): BenchmarkUDPShardWorkers and BenchmarkUDPPipelinedBatch carry
# the ReportAllocs zero-allocation claim, and the fourth pins
# BenchmarkHistogramObserve, whose ReportAllocs carries the
# zero-allocation claim for the latency-histogram record path, and the
# fifth pins BenchmarkCounterFlight (E33), which carries the claim for
# the Counter above the sessions and fails if it is not 0. The
# countbench runs prove the three recorded experiments still run and
# that their panic-checked integer bills hold (E30, E31: identical
# across tcp/udp/inproc, E32); their envelopes go to a scratch
# directory (git-ignored, inside the checkout) — a smoke run is one
# noisy sample and must not touch the committed records (`make
# bench-record` does that); CI points BENCH_OUT at its runner's temp
# directory.
BENCH_OUT ?= .bench_build/smoke
BENCH_FLEETS := Sharded|Dedup|UDP
BENCH_FLEETS_PKGS := ./internal/distnet ./internal/tcpnet ./internal/udpnet
BENCH_UDP_ALLOCS := BenchmarkUDPShardWorkers|BenchmarkUDPPipelinedBatch
BENCH_HIST_ALLOCS := BenchmarkHistogramObserve
BENCH_FLIGHT_ALLOCS := BenchmarkCounterFlight

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(call pinned,$(BENCH_FLEETS),$(BENCH_FLEETS_PKGS),Benchmark)
	$(GO) test -bench='$(BENCH_FLEETS)' -benchtime=1x -run='^$$' $(BENCH_FLEETS_PKGS)
	$(call pinned,$(BENCH_UDP_ALLOCS),./internal/udpnet,Benchmark)
	$(GO) test -bench='$(BENCH_UDP_ALLOCS)' -benchtime=1x -run='^$$' ./internal/udpnet
	$(call pinned,$(BENCH_HIST_ALLOCS),./internal/ctlplane,Benchmark)
	$(GO) test -bench='$(BENCH_HIST_ALLOCS)' -benchtime=1x -run='^$$' ./internal/ctlplane
	$(call pinned,$(BENCH_FLIGHT_ALLOCS),./internal/xport,Benchmark)
	$(GO) test -bench='$(BENCH_FLIGHT_ALLOCS)' -benchtime=1x -run='^$$' ./internal/xport
	mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/countbench -exp udpspeed -out $(BENCH_OUT)/BENCH_udp.json
	$(GO) run ./cmd/countbench -exp transports -out $(BENCH_OUT)/BENCH_transports.json
	$(GO) run ./cmd/countbench -exp latency -out $(BENCH_OUT)/BENCH_latency.json

# The ONLY target that writes the committed BENCH_*.json records (E30's
# machine-readable row set, E31's per-transport frame bill, E32's flight
# latency distributions). Run it on a quiet host when the engine
# changes, and commit the files with a note on what moved.
bench-record:
	$(GO) run ./cmd/countbench -exp udpspeed -out BENCH_udp.json
	$(GO) run ./cmd/countbench -exp transports -out BENCH_transports.json
	$(GO) run ./cmd/countbench -exp latency -out BENCH_latency.json

# The wall-clock benchmark (bench/, a module of its own that the root
# module's ./... does not reach): vet it and run the harness's own
# tests — estimators, histogram, the BENCHMARK.json-vs-binary contract —
# against this checkout's internal packages. It does not run the
# benchmark; `bash bench/run.sh` does.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# The OPERATIONS.md metric reference is generated from the live
# registrations: rebuild it with cmd/ctlplanedoc and diff against the
# committed table, so the manual cannot drift from the code. To update
# after changing metrics: go run ./cmd/ctlplanedoc and paste between
# the BEGIN/END markers in OPERATIONS.md.
docs-check:
	@gen="$$(mktemp)" want="$$(mktemp)"; \
	$(GO) run ./cmd/ctlplanedoc > "$$gen" || exit 1; \
	awk '/<!-- BEGIN GENERATED METRICS TABLE -->/{f=1;next} /<!-- END GENERATED METRICS TABLE -->/{f=0} f' OPERATIONS.md > "$$want"; \
	if ! diff -u "$$want" "$$gen"; then \
		echo "OPERATIONS.md metric table drifted from the registered metrics;" >&2; \
		echo "regenerate with: go run ./cmd/ctlplanedoc" >&2; exit 1; \
	fi; \
	rm -f "$$gen" "$$want"

# Full benchmark sweep (slow; see EXPERIMENTS.md for recorded tables).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Explore the batched-traversal and wire codec fuzz targets beyond the
# checked-in corpus.
fuzz:
	$(GO) test -fuzz=FuzzTraverseBatch -fuzztime=60s ./internal/network
	$(GO) test -fuzz=FuzzTraverseAntiBatch -fuzztime=60s ./internal/network
	$(GO) test -fuzz=FuzzFrameCodec -fuzztime=60s ./internal/wire
	$(GO) test -fuzz=FuzzPacketCodec -fuzztime=60s ./internal/wire
