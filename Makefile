# Local mirror of .github/workflows/ci.yml — run `make check` before
# pushing and you have run exactly what CI runs.

GO ?= go

.PHONY: check build vet fmt lint test race resilience conformance bench-smoke bench-record bench-test bench fuzz docs-check

check: build vet fmt lint race resilience conformance bench-smoke bench-test docs-check

build:
	$(GO) build ./...

# Both build-tag variants of udpnet's batched-syscall files are vetted:
# the default build resolves the recvmmsg/sendmmsg fast path, the
# countnet_nommsg build resolves the portable single-syscall fallback.
# Keep in lockstep with .github/workflows/ci.yml.
vet:
	$(GO) vet ./...
	$(GO) vet -tags countnet_nommsg ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

# The project's own analyzers (cmd/countlint): spin-loop hygiene,
# atomics-only field access, Makefile↔ci.yml gate lockstep, build-tag
# pairing, errors.Is on the xport sentinel, and metric-name
# conventions. Keep the invocation identical to the ci.yml lint step —
# the lockstep analyzer checks that it is.
lint:
	$(GO) run ./cmd/countlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short -timeout 10m ./...

# The exactly-once gates pinned BY NAME (a rename can't silently drop
# them): the tcpnet retry/dedup regressions, the session-kill chaos
# grid, the checkout health probe, Close racing a retry, the v1/v2
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
# transport). Keep this regex in lockstep with
# .github/workflows/ci.yml.
resilience:
	$(GO) test -race -run 'TestRetryExactlyOnce|TestChaosSessionKill|TestDedupSurvives|TestDedupConfig|TestPoolHealthCheck|TestCounterCloseDuringRetry|TestLegacyFrames|TestFrameRoundTrip|TestPacketRoundTrip|FuzzFrameCodec|FuzzPacketCodec|TestUDPChaosExactCountGrid|TestUDPRetransmitExactlyOnce|TestUDPResponseLoss|TestUDPMalformedPackets|TestUDPBatchRPCsMatchTCPFloor|TestUDPPipelineReorderExactCount|TestUDPPipelineRPCFloorMatchesSerial|TestUDPShardWorkersBufferIsolation|TestUDPDelayedDuplicateExactCount|TestWritePrometheusFormat|TestServeEndpoints|TestDrainOnSignal|TestFleetAggregation|TestShardControlPlaneEndpoints|TestCounterHealthFlipsAcrossDrain|TestShardedCounterEndpointAggregation|TestSIGTERMDrainExactCount|TestUDPShardControlPlaneEndpoints|TestMetricsMonotoneUnderChaos|TestHistogramRaceConsistency|TestPrometheusHistogramFormat|TestFlightRingBufferBounded|TestLatencyFrameBillUnchanged' ./internal/tcpnet ./internal/udpnet ./internal/wire ./internal/ctlplane ./internal/conformance

# The transport conformance suite pinned BY NAME, run under the race
# detector: one behavioural contract — chaos exact-count grids,
# deterministic retry/replay, shared Close semantics, drain health
# flips, integer-identical frame bills, single-source retry defaults —
# executed against every transport on the xport seam (tcp, udp,
# inproc). A new transport passes this suite or it does not ship. Keep
# the regex in lockstep with .github/workflows/ci.yml.
conformance:
	$(GO) test -race -count=1 -run 'TestConformance|TestTransportFrameBillEquality|TestRetryDefaultsSingleSource' ./internal/conformance

# Covers every package, the distributed benchmarks in internal/distnet,
# internal/tcpnet and internal/udpnet (batched protocol, E25) included;
# the second pass pins the sharded-deployment (E26), dedup-enabled (E27)
# and UDP-transport (E28) benchmarks by name so a rename can't silently
# drop them, and the third pins the raw-speed-path allocation gates
# (E30): BenchmarkUDPShardWorkers and BenchmarkUDPPipelinedBatch carry
# the ReportAllocs zero-allocation claim, and the fourth pins
# BenchmarkHistogramObserve, whose ReportAllocs carries the
# zero-allocation claim for the latency-histogram record path. The
# countbench runs prove the three recorded experiments still run and
# that their panic-checked integer bills hold (E30, E31: identical
# across tcp/udp/inproc, E32); their envelopes go to a scratch
# directory (git-ignored, inside the checkout) — a smoke run is one
# noisy sample and must not touch the committed records (`make
# bench-record` does that). Keep in lockstep with
# .github/workflows/ci.yml.
BENCH_OUT ?= .bench_build/smoke

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) test -bench='Sharded|Dedup|UDP' -benchtime=1x -run='^$$' ./internal/distnet ./internal/tcpnet ./internal/udpnet
	$(GO) test -bench='BenchmarkUDPShardWorkers|BenchmarkUDPPipelinedBatch' -benchtime=1x -run='^$$' ./internal/udpnet
	$(GO) test -bench='BenchmarkHistogramObserve' -benchtime=1x -run='^$$' ./internal/ctlplane
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
# benchmark; `bash bench/run.sh` does. Keep in lockstep with
# .github/workflows/ci.yml.
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
